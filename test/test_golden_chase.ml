(* Golden chase dump: every predicate's facts, in insertion order, for
   the reasoned SDC programs over a Figure 6 dataset, the example
   programs, and a seeded ownership graph — each chased at 1 and at 2
   domains and compared with the checked-in [golden_chase.txt].

   Values render losslessly ([Fact_dump]: type-tagged, floats in
   hexadecimal, strings escaped) and labelled nulls keep their labels,
   so any change to derivation order, duplicate elimination, null
   invention or float arithmetic shows up as a diff.

   Each input's block also carries a "canonical md5" line: the digest of
   [Canonical.of_engine], the fact set modulo null renaming. The bytes
   pin one build's output; the digests pin what must survive every
   version. Re-record the file only for an intended change of insertion
   order or null labels:
     CHASE_GOLDEN_WRITE=test/golden_chase.txt \
       dune exec test/test_golden_chase.exe
   The write refuses while any recorded digest differs from the fresh
   one: a changed digest is a changed fact set, never a re-recording.
   Recording a changed fact set on purpose means deleting the file
   first. *)

module Value = Vadasa_base.Value
module S = Vadasa_sdc
module D = Vadasa_datagen
module V = Vadasa_vadalog

(* The insertion-order dump and the canonical form's digest. *)
let chase ~domains program =
  Pooled_engine.with_engine ~domains program (fun engine ->
      V.Engine.run engine;
      ( Fact_dump.database (V.Engine.database engine),
        Digest.to_hex (Digest.string (V.Canonical.of_engine engine)) ))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Tests run from [_build/default/test]; [dune exec] runs from the root. *)
let rec find_up name depth base =
  let candidate = Filename.concat base name in
  if Sys.file_exists candidate then candidate
  else if depth = 0 then Alcotest.failf "%s not found" name
  else find_up name (depth - 1) (Filename.concat base Filename.parent_dir_name)

(* --- inputs ---------------------------------------------------------------- *)

let microdata = lazy (D.Suite.load ~scale:0.05 "R6A4U")

let ownerships =
  lazy
    (let rng = Vadasa_stats.Rng.create ~seed:29 in
     D.Ownership_gen.generate rng (Lazy.force microdata) ~id_attr:"id"
       ~edges:24 ())

let with_facts source facts =
  V.Program.union (V.Parser.parse source) (V.Program.make ~facts [])

let own_facts () =
  List.map
    (fun o ->
      ( "own",
        [|
          Value.Str o.S.Business.owner;
          Value.Str o.S.Business.owned;
          Value.Float o.S.Business.share;
        |] ))
    (Lazy.force ownerships)

let bridge_inputs () =
  let md = Lazy.force microdata in
  let facts = S.Vadalog_bridge.microdata_facts md in
  let measure m = with_facts (S.Vadalog_bridge.program_of_measure m) facts in
  let enhanced =
    let rel = S.Microdata.relation md in
    let pos = Vadasa_relational.Schema.index_of (S.Microdata.schema md) "id" in
    let ident =
      List.init (Vadasa_relational.Relation.cardinal rel) (fun i ->
          ("ident", [| Value.Int i; (Vadasa_relational.Relation.get rel i).(pos) |]))
    in
    with_facts
      (S.Vadalog_bridge.enhanced_k_anonymity_program ~k:2)
      (facts @ ident @ own_facts ())
  in
  let suppression =
    (* Algorithm 7 as the reasoned cycle runs it: [tuple] is [qset], and
       every fifth tuple suppresses its first quasi-identifier. *)
    let qi = List.hd (S.Microdata.quasi_identifiers md) in
    let directives =
      List.init (S.Microdata.cardinal md / 5) (fun j ->
          ("anonymize", [| Value.Int (5 * j); Value.Str qi |]))
    in
    with_facts
      (S.Vadalog_bridge.base_program ^ S.Suppression.program
     ^ "tuple(I, VS) :- qset(I, VS).\n")
      (facts @ directives)
  in
  [
    ("k-anonymity", measure (S.Risk.K_anonymity { k = 2 }));
    ("maybe-match", with_facts (S.Vadalog_bridge.k_anonymity_maybe_program ~k:2) facts);
    ("re-identification", measure S.Risk.Re_identification);
    ("individual", measure (S.Risk.Individual S.Risk.Naive));
    ("suda", measure (S.Risk.Suda { max_msu_size = 2; threshold_size = 3 }));
    ("enhanced", enhanced);
    ("suppression", suppression);
  ]

let example_inputs () =
  let dir = find_up "examples/programs" 6 (Sys.getcwd ()) in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".vada")
  |> List.sort compare
  |> List.map (fun f -> (f, V.Parser.parse (read_file (Filename.concat dir f))))

let ownership_input () =
  let dir = find_up "examples/programs" 6 (Sys.getcwd ()) in
  let source = read_file (Filename.concat dir "company_control.vada") in
  ("company_control.vada + ownership graph", with_facts source (own_facts ()))

let inputs () = bridge_inputs () @ example_inputs () @ [ ownership_input () ]

(* --- the check --------------------------------------------------------------- *)

let header =
  "# Golden chase dump, checked by test/test_golden_chase.ml. Per input: an\n\
   # \"== <input>\" line, a \"canonical md5\" line (the digest of\n\
   # Canonical.of_engine: the fact set modulo null renaming), then every fact\n\
   # in insertion order. Re-record only for an intended change of insertion\n\
   # order or null labels; every canonical md5 line must stay unchanged.\n"

let digest_prefix = "canonical md5 "

let render_all () =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf header;
  let digests =
    List.map
      (fun (name, program) ->
        let seq, digest = chase ~domains:1 program in
        let par, _ = chase ~domains:2 program in
        if not (String.equal seq par) then
          Alcotest.failf "%s: 2-domain chase differs from the 1-domain chase"
            name;
        Printf.bprintf buf "== %s\n%s%s\n%s" name digest_prefix digest seq;
        (name, digest))
      (inputs ())
  in
  (Buffer.contents buf, digests)

(* The (input, digest) pairs a golden file records. *)
let recorded_digests golden =
  let rec go acc = function
    | title :: line :: rest
      when String.starts_with ~prefix:"== " title
           && String.starts_with ~prefix:digest_prefix line ->
      let name = String.sub title 3 (String.length title - 3) in
      let n = String.length digest_prefix in
      go ((name, String.sub line n (String.length line - n)) :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] (String.split_on_char '\n' golden)

let check_digests ~golden digests =
  List.iter
    (fun (name, recorded) ->
      match List.assoc_opt name digests with
      | None -> Alcotest.failf "%s: in the golden file, no longer an input" name
      | Some fresh ->
        if not (String.equal recorded fresh) then
          Alcotest.failf
            "%s: canonical md5 %s, golden %s — the fact set changed, not only \
             its order or null labels"
            name fresh recorded)
    (recorded_digests golden)

let test_golden () =
  let rendered, digests = render_all () in
  (match Sys.getenv_opt "CHASE_GOLDEN_WRITE" with
  | Some path ->
    if Sys.file_exists path then check_digests ~golden:(read_file path) digests;
    let oc = open_out_bin path in
    output_string oc rendered;
    close_out oc
  | None -> ());
  let golden =
    read_file
      (if Sys.file_exists "golden_chase.txt" then "golden_chase.txt"
       else Filename.concat "test" "golden_chase.txt")
  in
  check_digests ~golden digests;
  if not (String.equal rendered golden) then begin
    (* Report the first differing line rather than megabytes of dump. *)
    let a = String.split_on_char '\n' rendered
    and b = String.split_on_char '\n' golden in
    let rec first i a b =
      match (a, b) with
      | x :: a', y :: b' when String.equal x y -> first (i + 1) a' b'
      | x :: _, y :: _ -> Alcotest.failf "line %d: got %s, golden %s" i x y
      | [], y :: _ -> Alcotest.failf "line %d: dump ends, golden has %s" i y
      | x :: _, [] -> Alcotest.failf "line %d: golden ends, dump has %s" i x
      | [], [] -> Alcotest.fail "dumps differ"
    in
    first 1 a b
  end

let () =
  Alcotest.run "golden_chase"
    [ ("chase", [ Alcotest.test_case "golden dump, domains 1 and 2" `Slow test_golden ]) ]
