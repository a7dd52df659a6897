(* Doc anchors: every "`sym` at `path:N`" reference in the top-level
   Markdown documents must name an existing file whose line N contains
   [sym], so the handbooks cannot drift silently from the code they
   cite.  Paths are relative to the repository root; the test's dune
   stanza makes the cited source trees available. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let anchor =
  Str.regexp "`\\([^` \t\n]+\\)`[ \t\n]+at[ \t\n]+`\\([^`: \t\n]+\\):\\([0-9]+\\)`"

(* (offset, symbol, path, cited line) of every anchor in [text] *)
let scan text =
  let rec go pos acc =
    match Str.search_forward anchor text pos with
    | exception Not_found -> List.rev acc
    | start ->
      let group i = Str.matched_group i text in
      let found = (start, group 1, group 2, int_of_string (group 3)) in
      go (Str.match_end ()) (found :: acc)
  in
  go 0 []

(* (document, line of the anchor, symbol, path, cited line) *)
let anchors doc =
  let text = read_file (Filename.concat ".." doc) in
  let line_of pos =
    List.length (String.split_on_char '\n' (String.sub text 0 pos))
  in
  List.map (fun (pos, sym, path, line) -> (doc, line_of pos, sym, path, line)) (scan text)

let docs () =
  Sys.readdir ".."
  |> Array.to_list
  |> List.filter (fun name -> Filename.check_suffix name ".md")
  |> List.sort String.compare

(* [None] when the anchor holds, else why it does not. *)
let stale (_, _, sym, path, line) =
  let file = Filename.concat ".." path in
  if not (Sys.file_exists file) then Some "no such file"
  else
    match List.nth_opt (String.split_on_char '\n' (read_file file)) (line - 1) with
    | _ when line < 1 -> Some "no such line"
    | None -> Some "no such line"
    | Some text when Astring.String.is_infix ~affix:sym text -> None
    | Some _ -> Some (Printf.sprintf "line does not mention %s" sym)

let test_anchors_resolve () =
  let all = List.concat_map anchors (docs ()) in
  Alcotest.(check bool) "the documents cite code" true (List.length all > 0);
  let failures =
    List.filter_map
      (fun ((doc, at, sym, path, line) as a) ->
        Option.map
          (fun why -> Printf.sprintf "%s:%d: `%s` at `%s:%d`: %s" doc at sym path line why)
          (stale a))
      all
  in
  Alcotest.(check (list string)) "stale anchors" [] failures

let test_scanner () =
  let text = "`initial` at\n`lib/x.ml:4`, `grow` at `:41`, `a b` at `p:1`" in
  Alcotest.(check (list (pair string string)))
    "only well-formed anchors, across line breaks"
    [ ("initial", "lib/x.ml") ]
    (List.map (fun (_, sym, path, _) -> (sym, path)) (scan text))

let () =
  Alcotest.run "docs"
    [
      ( "anchors",
        [
          Alcotest.test_case "scanner" `Quick test_scanner;
          Alcotest.test_case "every anchor resolves" `Quick test_anchors_resolve;
        ] );
    ]
