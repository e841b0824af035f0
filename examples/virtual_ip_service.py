#!/usr/bin/env python3
"""A fault-tolerant virtual-IP service behind LegoSDN.

Clients talk to one virtual IP; the VirtualIPGateway app DNATs each
flow to a pool of backend servers and SNATs the replies, so the pool
is invisible.  The gateway runs in a LegoSDN sandbox next to a
learning switch -- and because every flow admission is a two-switch
NetLog transaction, even a crash mid-admission cannot leave a
half-translated flow in the network.

Run:  python examples/virtual_ip_service.py
"""

from repro.apps import LearningSwitch, VirtualIPGateway
from repro.network.packet import tcp_packet
from repro.network.topology import linear_topology
from repro.stack import StackSpec, build_stack

VIP = "10.0.99.1"
VMAC = "0a:0a:0a:0a:0a:0a"


def main():
    # h1 is the client; h2 and h3 are the server pool.
    topo = linear_topology(3, 1)
    pool = topo.hosts[1:]
    stack = build_stack(StackSpec(topology=topo, seed=21, apps=(
        VirtualIPGateway(vip=VIP, vmac=VMAC,
                         backend_macs=tuple(h.mac for h in pool)),
        LearningSwitch(),
    )))
    net, runtime = stack.net, stack.runtime
    for host in pool:
        net.host(host.name).tcp_echo = True  # a trivial TCP echo "service"
    stack.start()
    net.run_for(1.5)
    net.reachability(wait=1.0)  # let the controller learn every host

    # Six client flows to the virtual IP.
    client = net.host("h1")
    for port in range(7000, 7006):
        client.send(tcp_packet(client.mac, VMAC, client.ip, VIP,
                               src_port=port, dst_port=80,
                               payload=f"request-{port}"))
        net.run_for(0.5)

    gateway = runtime.app("gateway")
    replies = [p for _, p in client.received
               if not p.is_lldp() and p.payload.startswith("echo:request-")]
    print(f"flows admitted:        {gateway.flows_admitted}")
    print(f"backend share:         "
          f"{ {m[-2:]: n for m, n in gateway.backend_share().items()} }")
    print(f"replies at the client: {len(replies)}")
    if replies:
        sample = replies[0]
        print(f"reply source seen by client: ip={sample.ip_src} "
              f"mac={sample.eth_src}  (the pool stays hidden)")
    print(f"controller up: {runtime.is_up}, "
          f"gateway crashes: {runtime.stats()['gateway']['crashes']}")


if __name__ == "__main__":
    main()
