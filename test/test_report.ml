(* Table / series rendering used by the experiment CLI. *)

module Table = Arc_report.Table
module Series = Arc_report.Series

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "1"; "alpha" ];
  Table.add_row t [ "22"; "b" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "title + header + rule + 2 rows + trailing" 6
    (List.length lines);
  (* Rows render in insertion order. *)
  let row1 = List.nth lines 3 and row2 = List.nth lines 4 in
  Alcotest.(check bool) "order kept" true
    (String.starts_with ~prefix:"1 " row1 && String.starts_with ~prefix:"22" row2)

let test_table_width_check () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  match Table.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch accepted"

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "x,y" ];
  Table.add_row t [ "2"; "say \"hi\"" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv quoting"
    "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n" csv

let test_float_rows () =
  let t = Table.create ~title:"t" ~columns:[ "algo"; "v1"; "v2" ] in
  Table.add_float_row t ~label:"arc" [ 1.5; 2.25e6 ];
  Alcotest.(check int) "row added" 1 (Table.rows t)

let test_series_table () =
  let s = Series.create ~title:"fig" ~x_label:"threads" in
  Series.add s ~series:"arc" ~x:2. ~y:100.;
  Series.add s ~series:"rf" ~x:2. ~y:50.;
  Series.add s ~series:"arc" ~x:4. ~y:200.;
  Alcotest.(check (list string)) "series names in insertion order" [ "arc"; "rf" ]
    (Series.series_names s);
  let table = Series.to_table s in
  Alcotest.(check int) "one row per x" 2 (Table.rows table);
  let csv = Series.to_csv s in
  Alcotest.(check bool) "missing point dashed" true
    (String.length csv > 0
    && List.exists
         (fun line -> String.ends_with ~suffix:",-" line)
         (String.split_on_char '\n' csv))

let test_series_chart () =
  let s = Series.create ~title:"fig" ~x_label:"threads" in
  Series.add s ~series:"arc" ~x:2. ~y:1000.;
  Series.add s ~series:"lock" ~x:2. ~y:10.;
  let chart = Series.render_chart ~width:20 s in
  Alcotest.(check bool) "both series plotted" true
    (String.length chart > 0
    && String.split_on_char '\n' chart |> List.length > 3);
  (* larger value gets the longer bar *)
  let bar name =
    String.split_on_char '\n' chart
    |> List.find_opt (fun l ->
           String.length l > 2
           && String.trim l <> ""
           && String.starts_with ~prefix:("  " ^ name) l)
    |> Option.map (fun l ->
           String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 l)
  in
  match (bar "arc", bar "lock") with
  | Some a, Some l ->
    Alcotest.(check bool) (Printf.sprintf "arc bar %d > lock bar %d" a l) true (a > l)
  | _ -> Alcotest.fail "bars not found"

let test_chart_empty () =
  let s = Series.create ~title:"empty" ~x_label:"x" in
  Alcotest.(check bool) "no crash on empty" true
    (String.length (Series.render_chart s) > 0)

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table width check" `Quick test_table_width_check;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "float rows" `Quick test_float_rows;
    Alcotest.test_case "series table" `Quick test_series_table;
    Alcotest.test_case "series chart" `Quick test_series_chart;
    Alcotest.test_case "chart empty" `Quick test_chart_empty;
  ]

let test_table_accessors () =
  let t = Table.create ~title:"acc" ~columns:[ "x" ] in
  Table.add_row t [ "r1" ];
  Table.add_row t [ "r2" ];
  Alcotest.(check string) "title" "acc" (Table.title t);
  Alcotest.(check (list (list string))) "body in order" [ [ "r1" ]; [ "r2" ] ]
    (Table.body t)

(* --- replay-command rendering (ISSUE 9) ------------------------------ *)

let test_replay_render () =
  let open Arc_report.Replay in
  Alcotest.(check string) "flags and typed values render in order"
    "arc-crash --fabric --shards 2 --replay-seed 2049006148 --churn 0.25 \
     --algo arc"
    (render ~exe:"arc-crash"
       [
         flag "--fabric";
         int "--shards" 2;
         int "--replay-seed" 2049006148;
         float "--churn" 0.25;
         str "--algo" "arc";
       ]);
  (* %g keeps whole-valued floats shell-short, the way the campaign
     flag parsers print them back. *)
  Alcotest.(check string) "whole float renders bare" "x --f 2"
    (render ~exe:"x" [ float "--f" 2.0 ]);
  Alcotest.(check string) "exe alone" "dune exec bin/soak.exe --"
    (render ~exe:"dune exec bin/soak.exe --" [])

let suite =
  suite
  @ [
      Alcotest.test_case "table accessors" `Quick test_table_accessors;
      Alcotest.test_case "replay-command rendering" `Quick test_replay_render;
    ]
