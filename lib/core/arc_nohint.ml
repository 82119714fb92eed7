let algorithm = "arc-nohint"

module Make (M : Arc_mem.Mem_intf.S) = struct
  include Arc.Make (M)

  let algorithm = algorithm

  let create ~readers ~capacity ~init =
    create_with Arc.Fixed_no_hint ~readers ~capacity ~init
end
