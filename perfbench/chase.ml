(* reason-chase: the reasoned path, in one process, one domain (the CLI
   default). One op runs one Vadalog program from text to fixpoint and
   reads its output: parse -> stratify -> create -> run -> facts. The
   programs are the reasoned risk measures over generated microdata and
   the company-control example program over generated ownership graphs. *)

module S = Vadasa_sdc
module V = Vadasa_vadalog
module D = Vadasa_datagen
module Value = Vadasa_base.Value
open Common

let control_program_path = "examples/programs/company_control.vada"

type kind =
  | Risk of S.Risk.measure * D.Generator.distribution * int  (** QI count *)
  | Control of int  (** chain length *)

(* Nine shapes per size stratum: two risk programs over W/U/V microdata
   and the control program over three chain lengths. *)
let shapes =
  let risk m = List.map (fun (d, q) -> Risk (m, d, q)) [ (D.Generator.W, 4); (U, 5); (V, 6) ] in
  Array.of_list
    (risk (S.Risk.K_anonymity { k = 2 })
    @ risk S.Risk.Re_identification
    @ [ Control 3; Control 4; Control 6 ])

let risk_tuples = (150, 1500)
let control_companies = (300, 3000)

type input =
  | Risk_input of { name : string; measure : S.Risk.measure; source : string; md : S.Microdata.t }
  | Control_input of { name : string; source : string }

let input_name = function Risk_input r -> r.name | Control_input c -> c.name

let generate ~seed ~distinct =
  let base_source = read_file control_program_path in
  let strata = distinct / Array.length shapes in
  Array.init distinct (fun j ->
      let rng = rng_for ~seed j in
      let stratum = j / Array.length shapes in
      let name = Printf.sprintf "c%03d" j in
      let microdata ~tuples ~qi_count ~distribution =
        D.Generator.generate
          { D.Generator.name; tuples; qi_count; distribution; seed = Rng.int rng 0x3FFFFFFF }
      in
      match shapes.(j mod Array.length shapes) with
      | Risk (measure, distribution, qi_count) ->
        let lo, hi = risk_tuples in
        let tuples = stratified rng ~lo ~hi ~stratum ~strata in
        Risk_input
          {
            name;
            measure;
            source = S.Vadalog_bridge.program_of_measure measure;
            md = microdata ~tuples ~qi_count ~distribution;
          }
      | Control chain_length ->
        let lo, hi = control_companies in
        let companies = stratified rng ~lo ~hi ~stratum ~strata in
        let md = microdata ~tuples:companies ~qi_count:1 ~distribution:D.Generator.W in
        let stakes =
          D.Ownership_gen.generate rng md ~id_attr:"id" ~edges:companies ~chain_length ()
        in
        (* The example program, its own facts included, plus the graph. *)
        let buf = Buffer.create (String.length base_source + (40 * companies)) in
        Buffer.add_string buf base_source;
        List.iter
          (fun o ->
            Printf.bprintf buf "own(%s, %s, %.4f).\n" o.S.Business.owner o.S.Business.owned
              o.S.Business.share)
          stakes;
        Control_input { name; source = Buffer.contents buf })

type op_out = Risks of float array | Pairs of (string * string) list

let run_op layers input =
  let span name f =
    match layers with None -> f () | Some l -> Layers.span l name f
  in
  let saturate source facts =
    let parsed = span "vadalog.parse_ms" (fun () -> V.Parser.parse source) in
    let strat = span "vadalog.stratify_ms" (fun () -> V.Stratify.compute parsed) in
    let program =
      match facts with
      | None -> parsed
      | Some md ->
        span "sdc.bridge.encode_ms" (fun () ->
            V.Program.union parsed
              (V.Program.make ~facts:(S.Vadalog_bridge.microdata_facts md) []))
    in
    let engine = span "vadalog.engine.create_ms" (fun () -> V.Engine.create ~strat program) in
    span "vadalog.engine.run_ms" (fun () -> V.Engine.run engine);
    engine
  in
  match input with
  | Risk_input r ->
    let engine = saturate r.source (Some r.md) in
    let n = S.Microdata.cardinal r.md in
    let risks =
      span "vadalog.engine.output_ms" (fun () -> S.Vadalog_bridge.decode_risks engine n)
    in
    (engine, Risks risks)
  | Control_input c ->
    let engine = saturate c.source None in
    let pairs =
      span "vadalog.engine.output_ms" (fun () ->
          V.Engine.facts engine "controls"
          |> List.map (fun f -> (Value.to_string f.(0), Value.to_string f.(1)))
          |> List.sort_uniq compare)
    in
    (engine, Pairs pairs)

(* Untimed checks: reasoned risks equal the compiled Risk.estimate
   (computed once per input), and every op over the same graph derives
   the same controls facts. *)
let check expected j input (_engine, out) =
  match (input, out) with
  | Risk_input r, Risks risks ->
    let compiled =
      match Hashtbl.find_opt expected j with
      | Some (Risks e) -> e
      | _ ->
        let e =
          (S.Risk.estimate ~semantics:Vadasa_relational.Null_semantics.Standard r.measure r.md)
            .S.Risk.risk
        in
        Hashtbl.replace expected j (Risks e);
        e
    in
    let bad = ref 0 in
    Array.iteri
      (fun i x ->
        let y = compiled.(i) in
        if Float.abs (x -. y) > 1e-9 *. Float.max 1.0 (Float.abs y) then incr bad)
      risks;
    if Array.length risks <> Array.length compiled || !bad > 0 then
      Error (Printf.sprintf "%d reasoned risks differ from Risk.estimate" !bad)
    else Ok ()
  | Control_input _, Pairs pairs -> (
    match Hashtbl.find_opt expected j with
    | Some (Pairs first) when first <> pairs ->
      Error
        (Printf.sprintf "%d controls facts, an earlier op over this graph derived %d"
           (List.length pairs) (List.length first))
    | Some _ -> Ok ()
    | None ->
      Hashtbl.replace expected j out;
      if pairs = [] then Error "no controls facts derived" else Ok ())
  | _ -> Error "output kind does not match input"

let observe totals (engine, _) _report =
  List.iter
    (fun row ->
      Layers.add totals "scanned" (float_of_int row.V.Profile.row_scanned);
      Layers.add totals "matched" (float_of_int row.V.Profile.row_matched);
      Layers.add totals "derived" (float_of_int row.V.Profile.row_derived);
      Layers.add totals "duplicates" (float_of_int row.V.Profile.row_duplicates))
    (V.Engine.profile_report engine).V.Profile.rows;
  Layers.add totals "iterations" (float_of_int (V.Engine.stats engine).V.Engine.iterations)

let layer_metrics ~ops totals =
  let g = Layers.get totals and n = float_of_int ops in
  List.map
    (fun name -> (name, g name /. n))
    [
      "vadalog.parse_ms"; "vadalog.stratify_ms"; "sdc.bridge.encode_ms";
      "vadalog.engine.create_ms"; "vadalog.engine.run_ms"; "vadalog.engine.output_ms";
    ]
  @ [
      ("vadalog.engine.scanned", g "scanned" /. n);
      ("vadalog.engine.matched", g "matched" /. n);
      ("vadalog.engine.match_ratio", g "matched" /. Float.max 1.0 (g "scanned"));
      ("vadalog.engine.derived", g "derived" /. n);
      ( "vadalog.engine.duplicate_ratio",
        g "duplicates" /. Float.max 1.0 (g "derived" +. g "duplicates") );
      ("vadalog.engine.iterations", g "iterations" /. n);
    ]

let workload expected =
  {
    Inproc.name = "reason-chase";
    shapes = Array.length shapes;
    ops_per_second = 30.0;
    generate;
    input_name;
    run_op;
    check = check expected;
    observe;
    layer_metrics;
  }

let run ~seed ~seconds ~trace = Inproc.run (workload (Hashtbl.create 64)) ~seed ~seconds ~trace
