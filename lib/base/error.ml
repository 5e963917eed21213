(** Unified error surface: one typed error value for every load/parse
    failure, a carrier exception for paths that cannot return [result],
    and the CLI's kind-to-exit-code mapping. *)

type kind = Parse | Io | Corrupt | Fault

type t = { kind : kind; context : string option; message : string }

exception Error of t

let make ?context kind message = { kind; context; message }

let raise_error ?context kind message = raise (Error (make ?context kind message))

let errorf ?context kind fmt =
  Printf.ksprintf (fun message -> make ?context kind message) fmt

let kind_name = function
  | Parse -> "parse"
  | Io -> "io"
  | Corrupt -> "corrupt"
  | Fault -> "fault"

let exit_code = function
  | Parse -> 3
  | Io -> 4
  | Corrupt -> 5
  | Fault -> 7

(* An OS message ([Sys_error]) already starts with the path it is about,
   which is also the usual context: name it once. *)
let to_string e =
  match e.context with
  | Some c when not (String.starts_with ~prefix:(c ^ ": ") e.message) ->
      Printf.sprintf "%s error: %s: %s" (kind_name e.kind) c e.message
  | _ -> Printf.sprintf "%s error: %s" (kind_name e.kind) e.message

let pp fmt e = Format.pp_print_string fmt (to_string e)

let guard ?context f =
  match f () with
  | v -> Ok v
  | exception Error e -> (
      match (e.context, context) with
      | None, Some _ -> Error { e with context }
      | _ -> Error e)
  | exception Sys_error m -> Error (make ?context Io m)
  | exception End_of_file -> Error (make ?context Io "unexpected end of file")

let () =
  Printexc.register_printer (function
    | Error e -> Some (to_string e)
    | _ -> None)
