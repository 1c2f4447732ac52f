(** Truth tables for Boolean functions of up to 16 variables.

    A table over [n] variables stores [2^n] bits packed into 64-bit
    words. Variable 0 is the lowest-order variable: minterm index
    [m] assigns variable [i] the value of bit [i] of [m]. *)

type t

val max_vars : int
(** Largest supported variable count (16). *)

exception Too_many_vars of int
(** Raised by constructors when asked for more than {!max_vars}. *)

val num_vars : t -> int
(** Number of variables of the table's domain. *)

val const : int -> bool -> t
(** [const n b] is the constant-[b] function of [n] variables. *)

val var : int -> int -> t
(** [var n i] is the projection onto variable [i] ([0 <= i < n]). *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognand : t -> t -> t
val lognor : t -> t -> t
val logxnor : t -> t -> t
(** Bitwise connectives; both arguments must have the same arity. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val is_const : t -> bool option
(** [Some b] when the function is constant [b], [None] otherwise. *)

val eval : t -> bool array -> bool
(** [eval tt assignment] evaluates the function; [assignment] must
    supply a value for each variable. *)

val get_bit : t -> int -> bool
(** [get_bit tt m] is the function value on minterm [m]. *)

val set_bit : t -> int -> bool -> t
(** Functional update of one minterm. *)

val cofactor : t -> int -> bool -> t
(** [cofactor tt i b] is the cofactor with variable [i] fixed to [b]
    (result keeps the same arity; it no longer depends on [i]). *)

val depends_on : t -> int -> bool
(** Whether the function depends on variable [i]. *)

val support : t -> int list
(** Variables the function actually depends on, ascending. *)

val permute : t -> int array -> t
(** [permute tt perm] renames variables: variable [i] of the input
    becomes variable [perm.(i)] of the result. [perm] must be a
    permutation of [0 .. num_vars - 1]. *)

val expand : t -> int -> int array -> t
(** [expand tt n placement] embeds a [num_vars tt]-variable function
    into an [n]-variable domain, mapping old variable [i] to new
    variable [placement.(i)]. *)

val project : t -> int array -> t
(** [project tt kept] restricts the function to the variables listed
    in [kept] (which must include the full support): the result has
    [Array.length kept] variables, with old variable [kept.(i)]
    becoming new variable [i]. Variables outside [kept] are fixed to
    false (irrelevant when [kept] covers the support). *)

val count_ones : t -> int
(** Number of satisfying minterms. *)

val of_minterms : int -> int list -> t
(** [of_minterms n ms] is the function of [n] variables that is true
    exactly on the minterm indices [ms]. *)

val to_hex : t -> string
(** Hexadecimal dump, most significant word first. *)

val to_bits : t -> int64
(** The packed table of a function of at most 6 variables — the whole
    table fits one word, so flat stores (the cut engine's buffers) can
    keep functions off-heap. Bits above [2^nvars] are zero.
    @raise Invalid_argument past 6 variables. *)

val of_bits : int -> int64 -> t
(** [of_bits n bits] rebuilds an [n]-variable function ([n <= 6]) from
    its packed table; inverse of {!to_bits} (stray high bits are
    masked off, so [equal (of_bits n (to_bits t)) t] always holds). *)

val pp : Format.formatter -> t -> unit
