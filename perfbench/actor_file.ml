(* The committed serving actor of [fleet_steady]: a [canopy-mlp v1]
   checkpoint. It is not an opaque blob: [derive] trains it again from a
   fixed configuration and seed, and must reproduce the file byte for
   byte. The serving workload loads the committed file, so a change to
   training does not move it. *)

module Trainer = Canopy.Trainer

let path = Filename.concat "perfbench" "actor.ckpt"
let seed = 12
let steps = 1500

let config () =
  Trainer.default_config ~seed ~total_steps:steps
    ~envs:(Trainer.env_pool ~seed ()) ()

(* The checkpoint text the configuration trains to. *)
let derive () =
  let agent, _ = Trainer.train (config ()) in
  Canopy_nn.Checkpoint.to_string (Canopy_rl.Td3.actor agent)
