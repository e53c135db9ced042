(* The span recorder on a fixed span tree: self times, nesting through
   [with_span] (also across an exception), and the Chrome trace-event
   encoding. *)

module Json = Ftrsn_service.Json

let check what ok = if not ok then failwith ("test_trace: " ^ what)
let close a b = Float.abs (a -. b) < 1e-9

let fixed_tree () =
  let t = Trace.create () in
  let root = Trace.add t "root" ~start:0.0 ~stop:10.0 in
  let a = Trace.add t ~parent:root "a" ~start:1.0 ~stop:4.0 in
  ignore (Trace.add t ~parent:a "a1" ~start:2.0 ~stop:3.0);
  (* b overlaps a on [3, 4]: the root's covered part is [1, 6], not 6 s *)
  ignore (Trace.add t ~parent:root "b" ~start:3.0 ~stop:6.0);
  ignore (Trace.add t ~parent:root ~req:7 "c" ~start:8.0 ~stop:9.0);
  ignore (Trace.add t ~parent:root "c" ~start:9.5 ~stop:9.75);
  t

let test_self_times () =
  let self = Trace.self_times (Trace.spans (fixed_tree ())) in
  check "span names in first-appearance order"
    (List.map fst self = [ "root"; "a"; "a1"; "b"; "c" ]);
  let get n = List.assoc n self in
  check "root self = 10 - |[1,6] u [8,9] u [9.5,9.75]|" (close (get "root") 3.75);
  check "a self = 3 - 1" (close (get "a") 2.0);
  check "leaf self = duration" (close (get "a1") 1.0 && close (get "b") 3.0);
  check "same-name spans sum" (close (get "c") 1.25)

let test_with_span () =
  let t = Trace.create () in
  let v =
    Trace.with_span t "outer" (fun () ->
        Trace.with_span t ~req:3 "inner" (fun () -> 42))
  in
  check "value returned" (v = 42);
  (try Trace.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  let after = Trace.add t "after" ~start:0.0 ~stop:0.0 in
  let sp = Trace.spans t in
  check "four spans" (Array.length sp = 4);
  check "outer is a root" (sp.(0).Trace.sp_parent = -1);
  check "inner nests in outer" (sp.(1).Trace.sp_parent = 0);
  check "inner keeps its request" (sp.(1).Trace.sp_req = Some 3);
  check "raising span closed and popped"
    (sp.(2).Trace.sp_parent = -1 && sp.(2).Trace.sp_stop >= sp.(2).Trace.sp_start);
  check "spans after an exception are roots" (sp.(after).Trace.sp_parent = -1);
  check "durations ordered"
    (sp.(0).Trace.sp_start <= sp.(1).Trace.sp_start
    && sp.(1).Trace.sp_stop <= sp.(0).Trace.sp_stop)

let test_chrome_json () =
  let j = Json.of_string (Json.to_string (Trace.to_json (Trace.spans (fixed_tree ())))) in
  let events = Json.to_list (Json.get "traceEvents" j) in
  check "one event per span" (List.length events = 6);
  let c = List.nth events 4 in
  check "complete events" (List.for_all (fun e -> Json.get_str "ph" e = "X") events);
  check "microsecond timestamps"
    (close (Json.to_float (Json.get "ts" c)) 8e6
    && close (Json.to_float (Json.get "dur" c)) 1e6);
  check "request id in args and thread"
    (Json.get_int "req" (Json.get "args" c) = 7 && Json.get_int "tid" c = 9);
  check "no args without a request" (Json.member "args" (List.hd events) = None)

let () =
  test_self_times ();
  test_with_span ();
  test_chrome_json ()
