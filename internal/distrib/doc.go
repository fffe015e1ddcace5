// Package distrib is the distributed runtime (§3, §4.4): it partitions a
// graph across devices, hosts one local executor per partition, and runs
// steps in which the executors make progress independently, communicating
// only through Send/Recv — no centralized per-iteration coordination. The
// coordinator (the Run caller) is involved only at step start and at
// completion or failure, as in the paper.
//
// There is one way to run a partitioned step. Dial connects to generic
// worker daemons (internal/cluster.Worker, the cmd/dcfworker CLI),
// Fleet.NewCluster verifies the partitioned program and registers each
// worker's partitions once (gob-encoded subgraph, plans compiled and cached
// at registration), and TCPCluster.RunCtx executes steps whose rendezvous
// keys are scoped per step. Devices hosted by the same worker exchange
// tensors through the worker's in-memory rendezvous table; devices on
// different workers go over TCP. Driver-side cancellation and worker
// failures fan out as abort control messages so every partition's blocked
// Recvs drain. See internal/cluster/README.md.
package distrib
