module Value = Vadasa_base.Value
module Ids = Vadasa_base.Ids
module Relational = Vadasa_relational
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module V = Vadasa_vadalog

exception Unsupported of string

(* The attributes the encoding carries — quasi-identifiers and the
   weight — with their [cat] constants. *)
let encoded_attributes md =
  List.filter_map
    (fun (attr, cat) ->
      match cat with
      | Microdata.Quasi_identifier -> Some (attr, "quasi_identifier")
      | Microdata.Weight -> Some (attr, "weight")
      | Microdata.Identifier | Microdata.Non_identifying -> None)
    (Microdata.categories md)

(* The delta slice of the encoding: [val] facts for rows [lo, hi) only.
   The [cat] facts are schema-level and already loaded by the base
   upload, so an append ships just the new rows' values — in the same
   row-major order [microdata_facts] uses, which keeps an incremental
   engine's insertion order aligned with the from-scratch encoding. *)
let microdata_facts_range md ~lo ~hi =
  let name = Microdata.name md in
  let rel = Microdata.relation md in
  let schema = Microdata.schema md in
  let positions =
    List.map
      (fun (attr, _) -> (attr, Schema.index_of schema attr))
      (encoded_attributes md)
  in
  let facts = ref [] in
  for i = lo to hi - 1 do
    let t = Relation.get rel i in
    List.iter
      (fun (attr, pos) ->
        facts :=
          ( "val",
            [| Value.Str name; Value.Int i; Value.Str attr; Tuple.get t pos |] )
          :: !facts)
      positions
  done;
  List.rev !facts

let microdata_facts md =
  let name = Value.Str (Microdata.name md) in
  List.map
    (fun (attr, cat) -> ("cat", [| name; Value.Str attr; Value.Str cat |]))
    (encoded_attributes md)
  @ microdata_facts_range md ~lo:0 ~hi:(Microdata.cardinal md)

let base_program =
  {|
% Algorithm 2, Rule 1: collect quasi-identifier name-value pairs per tuple
% and extract the sampling weight.
@label("assemble_tuple").
qset(I, QS) :- val(M, I, A, V1), cat(M, A, quasi_identifier),
               QS = munion((A, V1), <A>).
@label("weight").
wval(I, W) :- val(M, I, A, W), cat(M, A, weight).
|}

let k_anonymity_program ~k =
  base_program
  ^ {|
% Algorithm 4 - k-anonymity: a combination shared by fewer than k tuples
% is dangerous.
@label("combination_frequency").
grp(QS, F) :- qset(I, QS), F = mcount(<I>).
@label("k_anonymity_risk").
riskoutput(I, R) :- qset(I, QS), grp(QS, F), R = ite(F < |}
  ^ string_of_int k
  ^ {|, 1.0, 0.0).
@output("riskoutput").
|}

let k_anonymity_maybe_program ~k =
  base_program
  ^ {|
% Algorithm 4 under the maybe-match semantics of Section 4.3: a labelled
% null matches any value, so a suppressed tuple joins every compatible
% combination. Frequencies are counted over the =⊥ relation pairwise.
@label("maybe_match").
mm(I, J) :- qset(I, V1), qset(J, V2), maybe_eq(V1, V2).
@label("combination_frequency").
grp(I, F) :- mm(I, J), F = mcount(<J>).
@label("k_anonymity_risk").
riskoutput(I, R) :- grp(I, F), R = ite(F < |}
  ^ string_of_int k
  ^ {|, 1.0, 0.0).
@output("riskoutput").
|}

let reidentification_program =
  base_program
  ^ {|
% Algorithm 3 - re-identification risk: 1 over the summed sampling weights
% of the combination (the estimated population frequency).
@label("combination_weight").
grpw(QS, S) :- qset(I, QS), wval(I, W), S = msum(W, <I>).
@label("reidentification_risk").
riskoutput(I, R) :- qset(I, QS), grpw(QS, S), R = ite(S <= 1.0, 1.0, 1 / S).
@output("riskoutput").
|}

let individual_program =
  base_program
  ^ {|
% Algorithm 5 - individual risk: sample frequency over estimated population
% frequency (negative-binomial posterior, naive lambda = sum(W)/f).
@label("combination_frequency").
grp(QS, F) :- qset(I, QS), F = mcount(<I>).
@label("combination_weight").
grpw(QS, S) :- qset(I, QS), wval(I, W), S = msum(W, <I>).
@label("individual_risk").
riskoutput(I, R) :- qset(I, QS), grp(QS, F), grpw(QS, S),
                    R = min(1.0, F / max(S, 1.0)).
@output("riskoutput").
|}

let suda_program ~max_size ~threshold_size =
  {|
% Algorithm 6 - SUDA: generate combinations of quasi-identifiers, find
% sample uniques, keep the minimal ones, flag small MSUs.
@label("element").
elem(I, P) :- val(M, I, A, V1), cat(M, A, quasi_identifier), P = (A, V1).
@label("singleton").
sub(I, S) :- elem(I, P), S = coll(P).
@label("extend").
sub(I, S2) :- sub(I, S), elem(I, P), not(member(S, P)),
              size(S) < |}
  ^ string_of_int max_size
  ^ {|, S2 = union(S, coll(P)).
@label("combination_count").
cnt(S, F) :- sub(I, S), F = mcount(<I>).
@label("sample_unique").
su(I, S) :- sub(I, S), cnt(S, F), F = 1.
@label("non_minimal").
smaller(I, S) :- su(I, S), su(I, S2), S2 != S, subset(S2, S).
@label("minimal_sample_unique").
msu(I, S) :- su(I, S), not smaller(I, S).
@label("suda_risk").
riskoutput(I, R) :- msu(I, S), size(S) < |}
  ^ string_of_int threshold_size
  ^ {|, R = 1.0.
@output("riskoutput").
|}

let enhanced_k_anonymity_program ~k =
  k_anonymity_program ~k
  ^ Business.program
  ^ {|
% Algorithm 9 - risk propagation along linked entities: every member of a
% cluster carries the risk that at least one member is re-identified,
% 1 - mprod(1 - rho). Links are the symmetric-transitive closure of the
% control relation.
@label("link_fwd").
link(X, Y) :- rel(X, Y), X != Y.
@label("link_bwd").
link(Y, X) :- rel(X, Y), X != Y.
@label("link_trans").
link(X, Z) :- link(X, Y), link(Y, Z), X != Z.
@label("self_link").
linked(X, X) :- ident(I, X).
@label("cluster_member").
linked(X, Y) :- link(X, Y).
@label("cluster_risk").
risk_prop(I1, RC) :- ident(I1, E1), linked(E1, E2), ident(I2, E2),
                     riskoutput(I2, R), S = mprod(1 - R, <I2>),
                     RC = 1 - S.
@label("enhanced_own").
enhancedrisk(I, R) :- riskoutput(I, R).
@label("enhanced_cluster").
enhancedrisk(I, RC) :- risk_prop(I, RC).
@output("enhancedrisk").
|}

(* Chase a parsed program over [md]'s encoding followed by [facts]. *)
let saturate ?budget ?(domains = 1) ?pool ?first_null_label ?(facts = [])
    program md =
  let facts = microdata_facts md @ facts in
  let engine =
    V.Engine.create ?first_null_label ~domains ?pool
      (V.Program.union program (V.Program.make ~facts []))
  in
  Fun.protect
    ~finally:(fun () -> V.Engine.shutdown engine)
    (fun () -> V.Engine.run ?budget engine);
  engine

let decode_risks ?(pred = "riskoutput") engine n =
  let risks = Array.make n 0.0 in
  List.iter
    (fun fact ->
      match fact with
      | [| Value.Int i; r |] when i >= 0 && i < n ->
        (match Value.as_float r with
        | Some x -> risks.(i) <- Float.max risks.(i) x
        | None -> ())
      | _ -> ())
    (V.Engine.facts engine pred);
  risks

(* Algorithm 9 end-to-end on the engine: k-anonymity risk, the control
   closure, and the cluster propagation all run declaratively. *)
let enhanced_risk_via_engine ?(k = 2) md ~id_attr ~ownerships =
  let rel = Microdata.relation md in
  let pos = Schema.index_of (Microdata.schema md) id_attr in
  let ident_facts =
    List.init (Relation.cardinal rel) (fun i ->
        ("ident", [| Value.Int i; (Relation.get rel i).(pos) |]))
  in
  let own_facts =
    List.map
      (fun o ->
        ( "own",
          [|
            Value.Str o.Business.owner;
            Value.Str o.Business.owned;
            Value.Float o.Business.share;
          |] ))
      ownerships
  in
  let engine =
    saturate ~facts:(ident_facts @ own_facts)
      (V.Parser.parse (enhanced_k_anonymity_program ~k))
      md
  in
  decode_risks ~pred:"enhancedrisk" engine (Microdata.cardinal md)

let program_of_measure measure =
  match (measure : Risk.measure) with
  | Risk.K_anonymity { k } -> k_anonymity_program ~k
  | Risk.Re_identification -> reidentification_program
  | Risk.Individual Risk.Naive -> individual_program
  | Risk.Individual Risk.Benedetti_franconi ->
    raise
      (Unsupported
         "Benedetti-Franconi closed forms are outside the logic; use the \
          native path")
  | Risk.Individual (Risk.Monte_carlo _) ->
    raise (Unsupported "Monte Carlo sampling is outside the logic")
  | Risk.Suda { max_msu_size; threshold_size } ->
    suda_program ~max_size:max_msu_size ~threshold_size
  | Risk.Custom { name; _ } ->
    raise
      (Unsupported
         ("custom measure " ^ name
        ^ " is an OCaml function; express it as Vadalog rules to run it on \
           the engine"))

let risk_via_engine ?budget ?domains ?pool measure md =
  let program = V.Parser.parse (program_of_measure measure) in
  decode_risks (saturate ?budget ?domains ?pool program md) (Microdata.cardinal md)

let explain_risk measure md ~tuple =
  if tuple < 0 || tuple >= Microdata.cardinal md then None
  else
    let engine = saturate (V.Parser.parse (program_of_measure measure)) md in
    V.Engine.facts engine "riskoutput"
    |> List.find_opt (fun fact ->
           match fact with
           | [| Value.Int i; _ |] -> i = tuple
           | _ -> false)
    |> Option.map (fun fact ->
           match V.Engine.explain engine "riskoutput" fact with
           | Some tree -> V.Provenance.to_string tree
           | None -> "(no provenance recorded)")

(* The cycle's risk program under [config], or [Unsupported] when the
   logic has none: the engine suppresses but never recodes, and under
   maybe-match semantics only k-anonymity has a program. *)
let cycle_program (config : Cycle.config) =
  (match config.method_ with
  | Cycle.Local_suppression -> ()
  | Cycle.Global_recoding _ | Cycle.Recode_then_suppress _ ->
    raise (Unsupported "recoding has no engine program; use local suppression"));
  match config.semantics, config.measure with
  | Relational.Null_semantics.Maybe_match, Risk.K_anonymity { k } ->
    k_anonymity_maybe_program ~k
  | Relational.Null_semantics.Maybe_match, measure ->
    raise
      (Unsupported
         (Risk.measure_to_string measure
        ^ " has no maybe-match program; only k-anonymity does"))
  | Relational.Null_semantics.Standard, measure -> program_of_measure measure

(* Algorithm 7, with the suppression program's [tuple] read from the
   encoding's [qset]. Parsed once. *)
let suppression_program =
  V.Parser.parse (base_program ^ Suppression.program ^ "tuple(I, VS) :- qset(I, VS).\n")

(* One round's suppressions in one chase. The chase's nulls are labelled
   from the run's generator: the first label seeds the chase and one more
   is drawn for every further null it invents. The suppressed tuples are
   folded back into the relation. *)
let suppress_via_engine ids md directives =
  if directives <> [] then begin
    let engine =
      saturate ~first_null_label:(Ids.fresh_label ids)
        ~facts:
          (List.map
             (fun (i, attr) -> ("anonymize", [| Value.Int i; Value.Str attr |]))
             directives)
        suppression_program md
    in
    let nulls = V.Engine.nulls_created engine in
    for _ = 2 to nulls do
      ignore (Ids.fresh_label ids)
    done;
    Vadasa_telemetry.Telemetry.count "sdc.suppression.cells" nulls;
    let rel = Microdata.relation md in
    let schema = Microdata.schema md in
    List.iter
      (fun fact ->
        match fact with
        | [| Value.Int i; Value.Coll pairs |] ->
          List.iter
            (function
              | Value.Pair (Value.Str attr, v) ->
                (match Schema.index_of_opt schema attr with
                | Some pos when Value.is_null v ->
                  Relation.set rel i (Tuple.set (Relation.get rel i) pos v)
                | Some _ | None -> ())
              | _ -> ())
            pairs
        | _ -> ())
      (V.Engine.facts engine "tuple_s")
  end

let executor =
  let risk (config : Cycle.config) =
    let program = V.Parser.parse (cycle_program config) in
    fun md ->
      let stats = Risk.group_stats ~semantics:config.semantics md in
      {
        Risk.measure = config.measure;
        risk = decode_risks (saturate program md) (Microdata.cardinal md);
        freq = stats.Relational.Algebra.Group_stats.freq;
        weight_sum = stats.Relational.Algebra.Group_stats.weight_sum;
      }
  in
  { Cycle.risk; suppress = suppress_via_engine }
