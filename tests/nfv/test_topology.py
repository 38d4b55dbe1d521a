"""Tests for repro.nfv.topology."""

import pytest

from repro.nfv.topology import NfviTopology, Server
from repro.nfv.vnf import VNFInstance


def make_instance(vcpus=2.0, mem=1024.0, iid="i0"):
    return VNFInstance("firewall", vcpus=vcpus, mem_mb=mem, instance_id=iid)


class TestServer:
    def test_capacity_accounting(self):
        server = Server("s0", cpu_cores=4.0, mem_mb=4096.0)
        inst = make_instance(vcpus=2.0, mem=1024.0)
        server.place(inst)
        assert server.allocated_vcpus == 2.0
        assert server.free_vcpus == 2.0
        assert server.free_mem_mb == 3072.0
        assert inst.server_id == "s0"

    def test_cannot_overcommit_cpu(self):
        server = Server("s0", cpu_cores=2.0, mem_mb=8192.0)
        server.place(make_instance(vcpus=2.0, iid="a"))
        assert not server.can_host(make_instance(vcpus=0.5, iid="b"))
        with pytest.raises(ValueError, match="cannot host"):
            server.place(make_instance(vcpus=0.5, iid="b"))

    def test_cannot_overcommit_memory(self):
        server = Server("s0", cpu_cores=16.0, mem_mb=1024.0)
        assert not server.can_host(make_instance(vcpus=1.0, mem=2048.0))

    def test_remove_restores_capacity(self):
        server = Server("s0", cpu_cores=4.0, mem_mb=4096.0)
        inst = make_instance()
        server.place(inst)
        server.remove(inst)
        assert server.free_vcpus == 4.0
        assert inst.server_id is None

    def test_invalid_resources(self):
        with pytest.raises(ValueError, match="positive"):
            Server("s0", cpu_cores=0.0)


class TestTopologyConstruction:
    def test_add_and_query_server(self):
        topo = NfviTopology()
        topo.add_server(Server("s0"))
        assert topo.server("s0").server_id == "s0"
        assert topo.n_servers == 1

    def test_duplicate_node_rejected(self):
        topo = NfviTopology()
        topo.add_server(Server("s0"))
        with pytest.raises(ValueError, match="duplicate"):
            topo.add_switch("s0")

    def test_unknown_server_raises(self):
        with pytest.raises(KeyError, match="unknown server"):
            NfviTopology().server("nope")

    def test_link_requires_known_nodes(self):
        topo = NfviTopology()
        topo.add_server(Server("s0"))
        with pytest.raises(ValueError, match="unknown node"):
            topo.add_link("s0", "s1")

    def test_negative_latency_rejected(self):
        topo = NfviTopology()
        topo.add_server(Server("a"))
        topo.add_server(Server("b"))
        with pytest.raises(ValueError, match="latency"):
            topo.add_link("a", "b", latency_us=-1.0)


class TestPathLatency:
    def test_same_node_zero(self):
        topo = NfviTopology.linear(3)
        assert topo.path_latency_us("server0", "server0") == 0.0

    def test_linear_additive(self):
        topo = NfviTopology.linear(4, link_latency_us=100.0)
        assert topo.path_latency_us("server0", "server3") == pytest.approx(300.0)

    def test_shortest_path_chosen(self):
        topo = NfviTopology()
        for name in ("a", "b"):
            topo.add_server(Server(name))
        topo.add_switch("sw")
        topo.add_link("a", "b", 500.0)        # direct but slow
        topo.add_link("a", "sw", 50.0)        # via switch: 100 total
        topo.add_link("sw", "b", 50.0)
        assert topo.path_latency_us("a", "b") == pytest.approx(100.0)

    def test_disconnected_raises(self):
        topo = NfviTopology()
        topo.add_server(Server("a"))
        topo.add_server(Server("b"))
        with pytest.raises(ValueError, match="no path"):
            topo.path_latency_us("a", "b")

    def test_unknown_node_raises(self):
        topo = NfviTopology.linear(2)
        for a, b in (("nope", "server0"), ("server0", "nope"), ("nope", "nope")):
            with pytest.raises(ValueError, match="unknown node 'nope'"):
                topo.path_latency_us(a, b)


class TestBuilders:
    def test_linear_counts(self):
        topo = NfviTopology.linear(5)
        assert topo.n_servers == 5

    def test_leaf_spine_counts(self):
        topo = NfviTopology.leaf_spine(n_spine=2, n_leaf=3, servers_per_leaf=4)
        assert topo.n_servers == 12
        # 2 spines + 3 leaves + 12 servers
        assert topo.n_nodes == 17

    def test_leaf_spine_all_reachable(self):
        topo = NfviTopology.leaf_spine(n_spine=2, n_leaf=2, servers_per_leaf=2)
        servers = sorted(topo.servers)
        for a in servers:
            for b in servers:
                assert topo.path_latency_us(a, b) >= 0.0

    def test_leaf_spine_cross_leaf_longer_than_same_leaf(self):
        topo = NfviTopology.leaf_spine(n_spine=2, n_leaf=2, servers_per_leaf=2)
        same = topo.path_latency_us("server0-0", "server0-1")
        cross = topo.path_latency_us("server0-0", "server1-0")
        assert cross > same

    def test_fat_tree_counts(self):
        k = 4
        topo = NfviTopology.fat_tree(k)
        assert topo.n_servers == k**3 // 4  # 16 for k=4

    def test_fat_tree_odd_k_rejected(self):
        with pytest.raises(ValueError, match="even"):
            NfviTopology.fat_tree(3)

    def test_fat_tree_all_reachable(self):
        topo = NfviTopology.fat_tree(2)
        servers = sorted(topo.servers)
        for a in servers:
            for b in servers:
                topo.path_latency_us(a, b)

    def test_linear_invalid_count(self):
        with pytest.raises(ValueError, match="n_servers"):
            NfviTopology.linear(0)
