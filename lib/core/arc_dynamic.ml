let algorithm = "arc-dynamic"

module Make (M : Arc_mem.Mem_intf.S) = struct
  include Arc.Make (M)

  let algorithm = algorithm

  let create ~readers ~capacity ~init =
    create_with Arc.Sized ~readers ~capacity ~init
end
