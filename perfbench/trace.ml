(* Spans recorded by the benchmark around its calls into the program's
   layers.  Off by default: [span] is then a plain call, so untraced
   runs pay one branch per layer call.  When on, spans stay in memory
   and are written out once, after the run, as a Chrome trace-event
   file (Perfetto reads it) and as a per-layer table. *)

type span = {
  id : int;
  parent : int;     (* 0 for a root span *)
  req : int;        (* operation the span belongs to; 0 outside one *)
  layer : string;   (* module family the call lands in *)
  name : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let open_spans : (int * int) list ref = ref []   (* (id, req), innermost first *)
let next_id = ref 0

let span ?req layer name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent, req =
      match !open_spans with
      | (p, r) :: _ -> (p, Option.value req ~default:r)
      | [] -> (0, Option.value req ~default:0)
    in
    open_spans := (id, req) :: !open_spans;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        open_spans := List.tl !open_spans;
        spans := { id; parent; req; layer; name; t0; t1 } :: !spans)
  end

type layer_row = {
  l_layer : string;
  l_spans : int;
  l_busy : float;   (* summed span time *)
  l_self : float;   (* span time not covered by child spans *)
}

(* Per-layer totals over the spans that start inside [lo, hi]. *)
let layers ?(lo = neg_infinity) ?(hi = infinity) () =
  let inside s = s.t0 >= lo && s.t0 <= hi in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.
          +. (s.t1 -. s.t0)))
    !spans;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if inside s then begin
        let n, busy, self =
          Option.value (Hashtbl.find_opt rows s.layer) ~default:(0, 0., 0.)
        in
        let d = s.t1 -. s.t0 in
        let c = Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
        Hashtbl.replace rows s.layer (n + 1, busy +. d, self +. (d -. c))
      end)
    !spans;
  Hashtbl.fold
    (fun l (n, busy, self) acc ->
      { l_layer = l; l_spans = n; l_busy = busy; l_self = self } :: acc)
    rows []
  |> List.sort (fun a b -> compare b.l_self a.l_self)

let busy ?lo ?hi layer =
  match List.find_opt (fun r -> r.l_layer = layer) (layers ?lo ?hi ()) with
  | Some r -> r.l_busy
  | None -> 0.

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span.  Everything ran on one thread of
   the benchmark process, so nesting is read from time containment. *)
let write_chrome path =
  let all = List.rev !spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
         \"req\": %d}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (json_string s.layer)
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.req)
    all;
  output_string oc "]}\n";
  close_out oc
