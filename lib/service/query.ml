module Fault = Ftrsn_fault.Fault

type net_spec = {
  ns_source : [ `Itc02 of string | `File of string | `Inline of string ];
  ns_ft : bool;
}

let net_spec_of_cli arg =
  let spec =
    if String.length arg > 6 && String.sub arg 0 6 = "itc02:" then
      `Itc02 (String.sub arg 6 (String.length arg - 6))
    else `File arg
  in
  { ns_source = spec; ns_ft = false }

let net_spec_key spec =
  let body =
    match spec.ns_source with
    | `Itc02 n -> "itc02\x00" ^ n
    | `File p -> "file\x00" ^ p
    | `Inline t -> "inline\x00" ^ t
  in
  if spec.ns_ft then body ^ "\x00ft" else body

type engine = [ `Structural | `Bmc ]

type metric_q = {
  mq_net : net_spec;
  mq_sample : int option;
  mq_domains : int;
  mq_engine : engine;
  mq_reduce : bool;
  mq_inprocess : bool;
  mq_model : Fault.model;
  mq_with_stats : bool;
}

type pairs_q = {
  pq_net : net_spec;
  pq_fault_sample : int option;
  pq_pair_sample : int option;
  pq_domains : int;
  pq_engine : engine;
  pq_reduce : bool;
  pq_model : Fault.model;
  pq_with_stats : bool;
}

type certify_q = {
  cq_net : net_spec;
  cq_sample : int option;
  cq_domains : int;
  cq_pairs : bool;
  cq_model : Fault.model;
  cq_with_stats : bool;
}

type probe_q = {
  pb_net : net_spec;
  pb_target : string;
  pb_fault : string option;
  pb_model : Fault.model;
  pb_svf : bool;
}

type diagnose_q = {
  dq_net : net_spec;
  dq_signature : string list option;
  dq_limit : int option;
}

type synth_q = { sq_net : net_spec; sq_emit : bool }

type t =
  | Metric of metric_q
  | Pairs of pairs_q
  | Certify of certify_q
  | Probe of probe_q
  | Diagnose of diagnose_q
  | Synthesize of synth_q
  | Netinfo of net_spec
  | Stats

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let encode_net spec =
  let source =
    match spec.ns_source with
    | `Itc02 n -> ("itc02", Json.Str n)
    | `File p -> ("file", Json.Str p)
    | `Inline t -> ("inline", Json.Str t)
  in
  Json.Obj (source :: (if spec.ns_ft then [ ("ft", Json.Bool true) ] else []))

let opt_int k = function
  | None -> []
  | Some i -> [ (k, Json.Int i) ]

let engine_str = function `Structural -> "structural" | `Bmc -> "bmc"

let model_field m = ("fault_model", Json.Str (Fault.model_to_string m))

let encode = function
  | Metric q ->
      Json.Obj
        ([ ("op", Json.Str "metric"); ("net", encode_net q.mq_net) ]
        @ opt_int "sample" q.mq_sample
        @ [
            ("domains", Json.Int q.mq_domains);
            ("engine", Json.Str (engine_str q.mq_engine));
            ("reduce", Json.Bool q.mq_reduce);
            model_field q.mq_model;
            ("with_stats", Json.Bool q.mq_with_stats);
          ])
  | Pairs q ->
      Json.Obj
        ([ ("op", Json.Str "pairs"); ("net", encode_net q.pq_net) ]
        @ opt_int "fault_sample" q.pq_fault_sample
        @ opt_int "pair_sample" q.pq_pair_sample
        @ [
            ("domains", Json.Int q.pq_domains);
            ("engine", Json.Str (engine_str q.pq_engine));
            ("reduce", Json.Bool q.pq_reduce);
            model_field q.pq_model;
            ("with_stats", Json.Bool q.pq_with_stats);
          ])
  | Certify q ->
      Json.Obj
        ([ ("op", Json.Str "certify"); ("net", encode_net q.cq_net) ]
        @ opt_int "sample" q.cq_sample
        @ [
            ("domains", Json.Int q.cq_domains);
            ("pairs", Json.Bool q.cq_pairs);
            model_field q.cq_model;
            ("with_stats", Json.Bool q.cq_with_stats);
          ])
  | Probe q ->
      Json.Obj
        ([
           ("op", Json.Str "probe");
           ("net", encode_net q.pb_net);
           ("target", Json.Str q.pb_target);
         ]
        @ (match q.pb_fault with
          | None -> []
          | Some f -> [ ("fault", Json.Str f) ])
        @ [ model_field q.pb_model; ("svf", Json.Bool q.pb_svf) ])
  | Diagnose q ->
      Json.Obj
        ([ ("op", Json.Str "diagnose"); ("net", encode_net q.dq_net) ]
        @ (match q.dq_signature with
          | None -> []
          | Some lines ->
              [ ("signature", Json.List (List.map (fun l -> Json.Str l) lines)) ])
        @ opt_int "limit" q.dq_limit)
  | Synthesize q ->
      Json.Obj
        [
          ("op", Json.Str "synthesize");
          ("net", encode_net q.sq_net);
          ("emit", Json.Bool q.sq_emit);
        ]
  | Netinfo spec ->
      Json.Obj [ ("op", Json.Str "netinfo"); ("net", encode_net spec) ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]

let to_string q = Json.to_string (encode q)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let fail fmt = Printf.ksprintf (fun s -> raise (Json.Parse_error s)) fmt

let decode_net v =
  match Json.get "net" v with
  | Json.Str s -> net_spec_of_cli s
  | Json.Obj _ as o ->
      let ft = Json.get_bool_default "ft" false o in
      let source =
        match
          ( Json.get_str_opt "itc02" o,
            Json.get_str_opt "file" o,
            Json.get_str_opt "inline" o )
        with
        | Some n, None, None -> `Itc02 n
        | None, Some p, None -> `File p
        | None, None, Some t -> `Inline t
        | None, None, None ->
            fail "net: one of \"itc02\", \"file\", \"inline\" required"
        | _ -> fail "net: \"itc02\", \"file\", \"inline\" are exclusive"
      in
      { ns_source = source; ns_ft = ft }
  | _ -> fail "field \"net\": expected an object or a string"

let decode_engine v =
  match Json.get_str_opt "engine" v with
  | None | Some "structural" -> `Structural
  | Some "bmc" -> `Bmc
  | Some e -> fail "unknown engine %S (expected \"structural\" or \"bmc\")" e

let decode_model v =
  match Json.get_str_opt "fault_model" v with
  | None -> Fault.Stuck
  | Some s -> (
      match Fault.model_of_string s with
      | Some m -> m
      | None ->
          fail
            "unknown fault_model %S (expected \"stuck\", \"bridge\", \
             \"select\" or \"transient\")"
            s)

let decode v =
  match Json.get_str_opt "op" v with
  | None -> fail "missing field \"op\""
  | Some "metric" ->
      Metric
        {
          mq_net = decode_net v;
          mq_sample = Json.get_int_opt "sample" v;
          mq_domains = Json.get_int_default "domains" 1 v;
          mq_engine = decode_engine v;
          mq_reduce = Json.get_bool_default "reduce" true v;
          mq_inprocess = true;
          mq_model = decode_model v;
          mq_with_stats = Json.get_bool_default "with_stats" false v;
        }
  | Some "pairs" ->
      Pairs
        {
          pq_net = decode_net v;
          pq_fault_sample = Json.get_int_opt "fault_sample" v;
          pq_pair_sample = Json.get_int_opt "pair_sample" v;
          pq_domains = Json.get_int_default "domains" 1 v;
          pq_engine = decode_engine v;
          pq_reduce = Json.get_bool_default "reduce" true v;
          pq_model = decode_model v;
          pq_with_stats = Json.get_bool_default "with_stats" false v;
        }
  | Some "certify" ->
      Certify
        {
          cq_net = decode_net v;
          cq_sample = Json.get_int_opt "sample" v;
          cq_domains = Json.get_int_default "domains" 1 v;
          cq_pairs = Json.get_bool_default "pairs" false v;
          cq_model = decode_model v;
          cq_with_stats = Json.get_bool_default "with_stats" false v;
        }
  | Some "probe" ->
      Probe
        {
          pb_net = decode_net v;
          pb_target = Json.get_str "target" v;
          pb_fault = Json.get_str_opt "fault" v;
          pb_model = decode_model v;
          pb_svf = Json.get_bool_default "svf" false v;
        }
  | Some "diagnose" ->
      Diagnose
        {
          dq_net = decode_net v;
          dq_signature =
            (match Json.get_opt "signature" v with
            | None -> None
            | Some j -> Some (List.map Json.to_str (Json.to_list j)));
          dq_limit = Json.get_int_opt "limit" v;
        }
  | Some "synthesize" ->
      Synthesize
        {
          sq_net = decode_net v;
          sq_emit = Json.get_bool_default "emit" false v;
        }
  | Some "netinfo" -> Netinfo (decode_net v)
  | Some "stats" -> Stats
  | Some op -> fail "unknown op %S" op

let decode_line line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error msg
  | v -> (
      match decode v with
      | q -> Ok (q, Json.member "id" v)
      | exception Json.Parse_error msg -> Error msg)
