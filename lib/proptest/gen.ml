(* A generator: a function of a {!Rng.t} stream and a [size] budget,
   deterministic in the stream. *)
type 'a t = Rng.t -> size:int -> 'a
