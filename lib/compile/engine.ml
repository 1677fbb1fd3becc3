(** The compiled replay engine is {!Cobra.Pipeline}'s replay mode
    ([Pipeline.replay_step]): an engine is a pipeline, elaborated once. This
    name stays for callers that still spell it [Engine]. *)

type t = Cobra.Pipeline.t

let create = Cobra.Pipeline.create
