(* The benchmark's own span recorder.  Spans are taken only around calls
   into the library's public functions, kept in memory, and written out
   when the run ends.  A span's self time is its duration minus the time
   its child spans cover. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  req : int;  (** request (operation) the span belongs to *)
}

let on = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let request = ref 0

let push s =
  if !count = Array.length !spans then begin
    let grown = Array.make (max 4096 (2 * !count)) s in
    Array.blit !spans 0 grown 0 !count;
    spans := grown
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

(** [with_ name f] runs [f] inside a span named [name] when recording is
    on; otherwise it is a plain call. *)
let with_ name f =
  if not !on then f ()
  else begin
    let parent = match !stack with id :: _ -> id | [] -> -1 in
    let id = push { name; start = Common.now (); stop = nan; parent; req = !request } in
    stack := id :: !stack;
    let finish () =
      !spans.(id).stop <- Common.now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(** [request_ f] runs one operation as a root span named ["request"]. *)
let request_ f =
  incr request;
  with_ "request" f

(** Mean self time per request, in seconds, for every span name below a
    root, plus the share of the ["request"] roots' time no child covers
    ([unattributed]).  Roots of another name (work replayed beside a
    request) add to the per-name totals only. *)
let summary () =
  let n = !count in
  let child = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then
      child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
  done;
  let self = Hashtbl.create 16 in
  let root_total = ref 0.0 and root_self = ref 0.0 and roots = ref 0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let own = s.stop -. s.start -. child.(i) in
    if s.parent < 0 then begin
      if s.name = "request" then begin
        incr roots;
        root_total := !root_total +. (s.stop -. s.start);
        root_self := !root_self +. own
      end
    end
    else
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name))
  done;
  let per_req name =
    if !roots = 0 then 0.0
    else Option.value ~default:0.0 (Hashtbl.find_opt self name) /. float_of_int !roots
  in
  let unattributed = if !root_total > 0.0 then !root_self /. !root_total else 0.0 in
  let mean_root = if !roots = 0 then 0.0 else !root_total /. float_of_int !roots in
  (per_req, unattributed, mean_root, !roots)

(** [write path] dumps every span as tab-separated
    [id name start end parent request] lines. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tname\tstart\tend\tparent\trequest\n";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\n" i s.name s.start s.stop s.parent
      s.req
  done;
  close_out oc
