(** Whole-file reads and atomic publishes. See the interface. *)

let io path msg = Error.raise_error ~context:path Error.Io msg

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> io path m

let write_atomic path write =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    (* [close_out] flushes and reports the failure; the [finally] only
       releases the descriptor when something raised first. *)
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        write oc;
        close_out oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e -> (
      (try Sys.remove tmp with Sys_error _ -> ());
      match e with Sys_error m -> io path m | e -> raise e)
