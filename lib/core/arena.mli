(** Compatibility alias: the subject graph is {!Dagmap_subject.Subject},
    which stores it flat. It is kept so that code naming [Arena] keeps
    compiling; new code names [Subject]. *)

include module type of struct
  include Dagmap_subject.Subject
end

val to_subject : t -> t
(** The identity. *)
