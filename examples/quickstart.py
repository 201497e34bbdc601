#!/usr/bin/env python3
"""Quickstart: multicast to a mobile receiver in 60 lines.

Builds a tiny custom network (not the paper topology): two PIM-DM
routers in a line, a static multicast source, and one Mobile IPv6
receiver that roams to a foreign link mid-stream.  Shows the public
API: Network, HomeAgent, MobileNode, CbrSource, ReceiverApp.

Run:  python examples/quickstart.py
"""

from repro.mipv6 import HomeAgent, MobileNode
from repro.net import Host, Network, make_multicast_group
from repro.traffic import CbrSource, ReceiverApp


def main() -> None:
    net = Network(seed=42)

    # Links: home -- (HA router) -- backbone -- (router) -- foreign
    home = net.add_link("home", "2001:db8:1::/64")
    backbone = net.add_link("backbone", "2001:db8:2::/64")
    foreign = net.add_link("foreign", "2001:db8:3::/64")

    ha = HomeAgent(net.sim, "HA", tracer=net.tracer, rng=net.rng)
    ha.attach_to(home, home.prefix.address_for_host(1))
    ha.attach_to(backbone, backbone.prefix.address_for_host(1))
    r2 = HomeAgent(net.sim, "R2", tracer=net.tracer, rng=net.rng)
    r2.attach_to(backbone, backbone.prefix.address_for_host(2))
    r2.attach_to(foreign, foreign.prefix.address_for_host(2))
    for router in (ha, r2):
        net.register_node(router)
        net.on_start(router.start)

    source_host = Host(net.sim, "SRC", tracer=net.tracer, rng=net.rng)
    source_host.attach_to(home, home.prefix.address_for_host(100))
    net.register_node(source_host)

    mobile = MobileNode(
        net.sim, "MN",
        tracer=net.tracer, rng=net.rng,
        home_link=home,
        home_agent_address=ha.address_on(home),
        host_id=101,
    )
    net.register_node(mobile)

    group = make_multicast_group(1)
    app = ReceiverApp(mobile)
    mobile.join_group(group)

    source = CbrSource(source_host, group, packet_interval=0.5)
    source.start(at=5.0)

    net.run(until=30.0)
    at_home = app.unique_count
    print(f"t=30s  at home:        {at_home} datagrams received")

    mobile.move_to(foreign)  # roam; MLD re-joins on the foreign link
    net.run(until=60.0)
    print(f"t=60s  after roaming:  {app.unique_count} datagrams received")
    print(f"join delay after the move: {app.join_delay(30.0):.2f}s")
    print(f"care-of address: {mobile.care_of_address}")

    assert app.unique_count > at_home, "the mobile stopped receiving!"
    print("OK: multicast followed the mobile host to the foreign link")


if __name__ == "__main__":
    main()
