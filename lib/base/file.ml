(** Whole-file reads and atomic publishes. See the interface. *)

let io path msg = Error.raise_error ~context:path Error.Io msg

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> io path m

let read_lines path =
  (* After the last newline comes nothing, or the fragment a crash
     mid-append left. *)
  match List.rev (String.split_on_char '\n' (read path)) with
  | last :: rev_lines -> (List.rev rev_lines, if last = "" then None else Some last)
  | [] -> ([], None)

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

let append path ~size write =
  match open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path with
  | exception Sys_error _ -> false
  | oc -> (
      match
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            out_channel_length oc = size
            && begin
                 write oc;
                 close_out oc;
                 true
               end)
      with
      | appended -> appended
      | exception Sys_error m -> io path m)
