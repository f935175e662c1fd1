(* The four workloads, by the names BENCHMARK.json gives them. *)

let all : (string * (module Harness.WORKLOAD)) list =
  [ (Cert_batch.name, (module Cert_batch));
    (Cec_fraig.name, (module Cec_fraig));
    (Satd_stream.name, (module Satd_stream));
    (Cube_conquer.name, (module Cube_conquer)) ]
