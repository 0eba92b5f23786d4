type t = { ic : in_channel; oc : out_channel }

let connect ?(wait_seconds = 0.) path =
  let deadline = Unix.gettimeofday () +. wait_seconds in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Ok
        { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED) as e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.05;
        attempt ()
      end
      else
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" path
           (Unix.error_message e))
  in
  attempt ()

(* ic and oc share the descriptor: close it exactly once, or the second
   close may hit the same number reused by another connection *)
let close t = close_out_noerr t.oc

let rpc_line t line =
  match
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc
  with
  | () -> (
    match input_line t.ic with
    | line -> Ok line
    | exception End_of_file -> Error "server closed the connection"
    | exception Sys_error e -> Error e)
  | exception Sys_error e -> Error e

let rpc t req =
  match rpc_line t (Request.to_line req) with
  | Error _ as e -> e
  | Ok line -> (
    match Response.of_string line with
    | Ok resp -> Ok resp
    | Error e -> Error ("bad response: " ^ e))

let request ?wait_seconds ~socket req =
  match connect ?wait_seconds socket with
  | Error _ as e -> e
  | Ok t ->
    Fun.protect ~finally:(fun () -> close t) (fun () -> rpc t req)
