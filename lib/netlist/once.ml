type 'a state = Todo of (unit -> 'a) | Done of 'a
type 'a t = { m : Mutex.t; mutable state : 'a state }

let make build = { m = Mutex.create (); state = Todo build }

let force t =
  Mutex.protect t.m (fun () ->
      match t.state with
      | Done v -> v
      | Todo build ->
        let v = build () in
        (* dropping the closure releases whatever the build captured *)
        t.state <- Done v;
        v)
