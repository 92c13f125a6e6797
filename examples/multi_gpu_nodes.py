#!/usr/bin/env python3
"""Mixed intra-/inter-node traffic with DirectIPC fusion.

Four ranks on two Lassen nodes (two GPUs per node) run a 1-D ring halo
exchange.  Each rank therefore has one *intra-node* neighbor (reachable
over NVLink) and one *inter-node* neighbor (over InfiniBand):

* with ``enable_direct_ipc=True``, the intra-node transfers skip
  packing entirely — the receiver fuses a **DirectIPC** load-store
  kernel that reads the sender's non-contiguous buffer over NVLink and
  scatters it straight into its own layout (the zero-copy scheme of
  [24], the third request type of the fusion framework, §IV-A1);
* inter-node transfers pack + RDMA as usual, fused with everything
  else in the same request list.

The example prints the ring latency with and without DirectIPC and
shows the request mix the scheduler actually fused.

Run:  python examples/multi_gpu_nodes.py
"""

import numpy as np

from repro.config import ProtocolCfg
from repro.gpu import OpKind
from repro.mpi import Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator
from repro.workloads import WORKLOADS

SIZE = 4  # 2 nodes x 2 GPUs


def run_ring(enable_direct_ipc: bool):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2, ranks_per_node=2)
    runtime = Runtime(
        sim, cluster, SCHEME_REGISTRY["Proposed"],
        protocol=ProtocolCfg(enable_direct_ipc=enable_direct_ipc),
    )
    spec = WORKLOADS["specfem3D_cm"](1000)
    layout = spec.datatype.flatten()
    bufs = {}
    for r in range(SIZE):
        rank = runtime.rank(r)
        send = rank.device.alloc(spec.buffer_bytes())
        send.data[:] = np.random.default_rng(r).integers(0, 256, send.nbytes)
        left = rank.device.alloc(spec.buffer_bytes())
        right = rank.device.alloc(spec.buffer_bytes())
        bufs[r] = (send, left, right)

    def program(r):
        rank = runtime.rank(r)
        left_peer, right_peer = (r - 1) % SIZE, (r + 1) % SIZE
        send, from_left, from_right = bufs[r]
        reqs = [
            rank.irecv(from_left, spec.datatype, 1, left_peer, tag=0),
            rank.irecv(from_right, spec.datatype, 1, right_peer, tag=1),
        ]
        sreq = yield from rank.isend(send, spec.datatype, 1, right_peer, tag=0)
        reqs.append(sreq)
        sreq = yield from rank.isend(send, spec.datatype, 1, left_peer, tag=1)
        reqs.append(sreq)
        yield from rank.waitall(reqs)

    procs = [sim.process(program(r)) for r in range(SIZE)]
    sim.run(sim.all_of(procs))

    # Verify the ring delivered the right neighbours' data.
    idx = layout.gather_index()
    for r in range(SIZE):
        _send, from_left, from_right = bufs[r]
        assert np.array_equal(from_left.data[idx], bufs[(r - 1) % SIZE][0].data[idx])
        assert np.array_equal(from_right.data[idx], bufs[(r + 1) % SIZE][0].data[idx])

    # Tally the fused request mix across all ranks.
    mix = {kind: 0 for kind in OpKind}
    for r in range(SIZE):
        for plan in runtime.rank(r).scheme.scheduler.plans:
            for part in plan.requests:
                mix[part.op.kind] += 1
    return sim.now * 1e6, mix


def main() -> None:
    print(f"1-D ring halo, {SIZE} ranks on 2 nodes x 2 GPUs (Lassen)\n")
    for label, ipc in (("pack + RDMA everywhere     ", False),
                       ("DirectIPC for intra-node   ", True)):
        latency, mix = run_ring(ipc)
        fused = ", ".join(f"{k.value}: {v}" for k, v in mix.items() if v)
        print(f"  {label}: {latency:8.1f} us   fused requests -> {fused}")
    print(
        "\nWith DirectIPC the intra-node hops skip the pack/unpack pair "
        "entirely; the same fused kernels mix packing, unpacking, and "
        "peer load-stores (§IV-A1's three request types)."
    )


if __name__ == "__main__":
    main()
