(** Distinct-value estimation for streams.

    Two estimators, as cited by the paper: the probabilistic counting
    sketch of Flajolet–Martin [6] (PCSA with stochastic averaging) for
    unbounded streams, and an exact hash-based counter (the "bitmap
    approach") that is cheap when the number of distinct values is small —
    the statistics collector uses the exact counter up to a budget and
    falls back to the sketch beyond it.

    Each value is hashed once: [Value.hash], then a 64-bit mix.  The mixed
    hash feeds both the sketch and the exact counter, which keeps the
    mixed hashes (truncated to a native int) in an int-keyed table. *)

module Fm : sig
  type t

  (** [create ~maps ()] uses [maps] stochastic-averaging buckets
      (default 64). *)
  val create : ?maps:int -> unit -> t

  val add : t -> Mqr_storage.Value.t -> unit
  val estimate : t -> float
end

(** Adaptive counter: exact until [exact_limit] distinct values, sketch
    afterwards. *)
type t

val create : ?exact_limit:int -> unit -> t
val add : t -> Mqr_storage.Value.t -> unit
val estimate : t -> float

(** Whether the estimate is still exact. *)
val is_exact : t -> bool
