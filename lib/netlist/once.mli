(** A lazy value that several domains may force.

    [Lazy.force] is not domain-safe in OCaml 5: a second domain forcing a
    value under construction raises [CamlinternalLazy.Undefined].  A
    [Once.t] serializes its build under its own mutex instead, so the
    first forcer builds and every concurrent forcer waits for, then
    shares, that one value.  A build that raises leaves the cell unbuilt
    (the next force retries).  Building must not force the same cell
    again. *)

type 'a t

val make : (unit -> 'a) -> 'a t
val force : 'a t -> 'a
