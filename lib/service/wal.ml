(** Line-oriented write-ahead log file. See the interface for the
    durability contract. *)

module Error = Tir_core.Error
module Fault = Tir_core.Fault
module Metrics = Tir_obs.Metrics

let m_appends = Metrics.counter "wal.appends"
let m_rewrites = Metrics.counter "wal.rewrites"
let m_torn = Metrics.counter "wal.torn_tail"

type writer = { path : string; oc : out_channel; mutable next : int; mutable closed : bool }

let open_append ~path ~start_index =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  { path; oc; next = start_index; closed = false }

let index w = w.next

(* Fault decision before the write: an append either fails completely
   (after exhausting its retries) or lands as one flushed line — it never
   tears the file itself. Torn tails come only from real crashes between
   [output_string] and the kernel reaching disk. *)
let append w line =
  if w.closed then
    Error.raise_error ~context:w.path Error.Io "append to closed WAL";
  let key = Printf.sprintf "wal:%d" w.next in
  (if Fault.enabled Fault.Db_write then
     try
       Tir_parallel.Retry.with_retries ~site:"db" ~key (fun ~attempt ->
           Fault.maybe_fail Fault.Db_write
             ~key:(Printf.sprintf "%s@%d" key attempt))
     with Tir_parallel.Retry.Exhausted { attempts; _ } ->
       Error.raise_error ~context:w.path Error.Fault
         (Printf.sprintf "WAL append %s failed after %d attempts" key attempts));
  output_string w.oc line;
  output_char w.oc '\n';
  flush w.oc;
  w.next <- w.next + 1;
  Metrics.incr m_appends

let close w =
  if not w.closed then begin
    w.closed <- true;
    close_out w.oc
  end

let read ~path =
  if not (Sys.file_exists path) then ([], None)
  else begin
    let records, torn = Tir_core.File.read_lines path in
    if torn <> None then Metrics.incr m_torn;
    (records, torn)
  end

let rewrite ~path records =
  Tir_core.File.write_atomic path (fun oc ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        records);
  Metrics.incr m_rewrites
