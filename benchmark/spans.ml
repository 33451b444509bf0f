(* Spans recorded in memory by the benchmark around its own calls into
   the libraries — nothing inside lib/ is instrumented.  Each span has
   an id, the op it belongs to, a name, its parent span, a start and an
   end.  A layer's self time is its duration minus the part its child
   spans cover; the op span's self time is the time no layer claims. *)

type span = {
  id : int;
  op : int;      (** op index, [-1] outside any op *)
  name : string;
  parent : int;  (** parent span id, [-1] at top level *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** completed spans, newest first *)
  mutable stack : int list;   (** open span ids, innermost first *)
  mutable next : int;
  mutable op : int;
}

let create () = { spans = []; stack = []; next = 0; op = -1 }

let duration s = s.stop -. s.start

(* [span tr name f] runs [f] inside a span named [name]; without a
   recorder it is just [f ()], so one op body serves both passes. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Harness.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Harness.now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; op = t.op; name; parent; start; stop } :: t.spans)

(* The root span of op [i]: every layer span opened inside belongs to
   the op, and the op's own self time is the unattributed part. *)
let op t i f =
  t.op <- i;
  Fun.protect (fun () -> span (Some t) "op" f) ~finally:(fun () -> t.op <- -1)

(* Fox–Glynn alone, outside any op, on the window an op's kernel used: a
   cold [compute] in a "numerics.fox_glynn" span.  Returns the window's
   right truncation point. *)
let fox_glynn_probe t ~q ~epsilon =
  Numerics.Fox_glynn.cache_clear ();
  let w =
    span (Some t) "numerics.fox_glynn" (fun () ->
        Numerics.Fox_glynn.compute ~q ~epsilon)
  in
  float_of_int w.Numerics.Fox_glynn.right

type row = { name : string; calls : int; total : float; self : float }

let rows t =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)
      in
      let r =
        Option.value (Hashtbl.find_opt by_name s.name)
          ~default:{ name = s.name; calls = 0; total = 0.0; self = 0.0 }
      in
      Hashtbl.replace by_name s.name
        { r with calls = r.calls + 1; total = r.total +. duration s;
                 self = r.self +. self })
    t.spans;
  List.sort (fun a b -> Float.compare b.self a.self)
    (List.of_seq (Hashtbl.to_seq_values by_name))

let find t name =
  List.find_opt (fun (r : row) -> r.name = name) (rows t)

let total t name = match find t name with Some r -> r.total | None -> 0.0
let calls t name = match find t name with Some r -> r.calls | None -> 0

(* Mean self seconds of layer [name] per op. *)
let self_per_op t name =
  let ops = calls t "op" in
  match find t name with
  | Some r when ops > 0 -> r.self /. float_of_int ops
  | _ -> 0.0

(* Durations of every [name] span. *)
let durations t name =
  List.filter_map
    (fun (s : span) -> if s.name = name then Some (duration s) else None)
    t.spans

(* Mean duration of one [name] span. *)
let mean_seconds t name =
  match find t name with
  | Some r when r.calls > 0 -> r.total /. float_of_int r.calls
  | _ -> 0.0

(* Layer metrics read off the spans: self time per op, or the mean
   duration of one call. *)
let self_ms t name =
  Harness.metric (name ^ "_ms") "ms" (1000.0 *. self_per_op t name)

let mean_ms t name =
  Harness.metric (name ^ "_ms") "ms" (1000.0 *. mean_seconds t name)

let mean_us t name =
  Harness.metric (name ^ "_us") "us" (1e6 *. mean_seconds t name)

(* Share of op time that no layer span covers. *)
let unattributed_frac t =
  match find t "op" with
  | Some r when r.total > 0.0 -> r.self /. r.total
  | _ -> 0.0

(* The two validity checks of a traced run: how much slower the traced
   ops ran than the same ops untraced, and how much op time no layer
   span explains. *)
let validity t ~plain_seconds =
  [ Harness.metric "trace.overhead_frac" "frac"
      ((total t "op" /. plain_seconds) -. 1.0);
    Harness.metric "trace.unattributed_frac" "frac" (unattributed_frac t) ]

let print_table ~workload t =
  let op_total = total t "op" in
  Printf.printf "%s self time by layer (%d traced ops):\n" workload
    (calls t "op");
  Printf.printf "  %-22s %8s %12s %12s %7s\n" "span" "calls" "total ms"
    "self ms" "share";
  List.iter
    (fun r ->
      Printf.printf "  %-22s %8d %12.3f %12.3f %6.1f%%\n"
        (if r.name = "op" then "op (unattributed)" else r.name)
        r.calls (1000.0 *. r.total) (1000.0 *. r.self)
        (if op_total > 0.0 then 100.0 *. r.self /. op_total else 0.0))
    (rows t)

let write t path =
  let num x = Io.Json.Number x in
  let json_of s =
    Io.Json.Object
      [ ("id", num (float_of_int s.id)); ("op", num (float_of_int s.op));
        ("name", Io.Json.String s.name);
        ("parent", num (float_of_int s.parent)); ("start", num s.start);
        ("end", num s.stop) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Io.Json.to_string (Io.Json.List (List.rev_map json_of t.spans)));
      output_char oc '\n')
