(** Deterministic splitmix64 random-number generator.

    Every randomized component (data generation, reservoir sampling, FM
    sketches) takes an explicit [Rng.t] so runs are reproducible.  The
    64-bit state is kept unboxed, so {!int} allocates nothing. *)

type t

val create : int -> t

(** Raw next 64-bit state step. *)
val next_int64 : t -> int64

(** Uniform in [0, bound). *)
val int : t -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** Independent generator seeded from this one. *)
val split : t -> t

(** Fisher–Yates shuffle in place. *)
val shuffle : t -> 'a array -> unit
