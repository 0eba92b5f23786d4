(* Child processes of the benchmark: every measured CLI run and every
   daemon.  Each child is reaped with wait4 so its peak resident set
   comes back with its exit code. *)

external wait4 : int -> int * int * float = "perfbench_wait4"

type result = {
  code : int;  (** exit code; 128 + signal when killed *)
  wall : float;  (** seconds from spawn to reap *)
  rss_kb : int;  (** peak resident set of the child *)
  out : string;  (** everything the child wrote to stdout *)
}

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let log_fd path =
  Unix.openfile path
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
    0o644

let read_all fd =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Buffer.contents buf

(* Run [argv] to completion, stdout captured, stderr appended to [log]. *)
let run ~log argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let inp = devnull () and err = log_fd log in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ wr; inp; err ])
      (fun () -> Unix.create_process argv.(0) argv inp wr err)
  in
  let out = Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> read_all rd) in
  let code, rss_kb, _cpu = wait4 pid in
  { code; wall = Unix.gettimeofday () -. t0; rss_kb; out }

(* Start a long-running child (the daemon) with stdout and stderr to
   [log]; the caller must {!reap} it. *)
let spawn ~log argv =
  let inp = devnull () and out = log_fd log in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ inp; out ])
    (fun () -> Unix.create_process argv.(0) argv inp out out)

(* (exit code, peak RSS KiB) of a spawned child, blocking. *)
let reap pid =
  let code, rss, _ = wait4 pid in
  (code, rss)
