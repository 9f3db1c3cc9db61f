(** [Array.sort Float.compare], specialised to float arrays.

    [sort_floats a] runs the stdlib's ternary heap sort with the same
    comparisons in the same order, so it leaves [a] in the same
    permutation: equal keys (0.0 and -0.0, NaNs) come out in the same
    order and so with the same bits.  Being typed, it neither boxes a
    float per access nor calls the comparison through a closure. *)

val sort_floats : float array -> unit
