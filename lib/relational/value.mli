(** Constants that may occur in database facts.

    The paper's domain [Const] is abstract; we support integers and
    strings, which cover every construction in the paper (the hardness
    gadgets use integer constants, the examples use strings). *)

type t =
  | Int of int
  | Str of string

val int : int -> t
val str : string -> t

val as_int : t -> int option
(** [Some n] when the value is an integer constant. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val compare_tuple : t array -> t array -> int
(** Shorter tuples first, then lexicographic by {!compare}. Allocates
    nothing. *)

val hash : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_string : string -> t
(** Integer-looking tokens parse as [Int]; everything else as [Str]. *)
