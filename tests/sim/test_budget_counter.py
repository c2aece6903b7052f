"""The one-pass counter behind ``test_hop_budget.py``'s budget table."""

from __future__ import annotations

import gc
import sys

from test_hop_budget import MINOR, SRC, count, function

from repro.net.srh import Tlv, make_srh, validate_srh_wire


def test_count_tallies_calls_and_bytecodes_by_layer():
    leaves = [{}, {}]  # net/hop.py calls two equal but distinct translated leaves and a lambda here
    for namespace in leaves:
        exec(compile("def leaf(x):\n    return x + 1\n", "<ebpf-jit>", "exec"), namespace)
    namespace = {"other": lambda x: x, "leaf": leaves[0]["leaf"], "twin": leaves[1]["leaf"]}
    exec(compile("def hop(x):\n    return other(leaf(twin(x)))\n", SRC + "net/hop.py", "exec"), namespace)
    assert namespace["leaf"].__code__ == namespace["twin"].__code__

    tallies = count(namespace["hop"], 1)
    assert {name: calls for name, (calls, _b) in tallies.items()} == {"net/hop.py": 1, "<ebpf-jit>": 2, "other": 1}
    assert tallies["<ebpf-jit>"][1] == 2 * 4 and tallies["other"][1] == 2  # load, add, return / load, return
    assert tallies["net/hop.py"][1] == {"3.11": 11, "3.12": 8}.get(MINOR, tallies["net/hop.py"][1])
    assert sorted(count(namespace["hop"], 1, by=function)) == [
        "<ebpf-jit>:leaf", "net/hop.py:hop",
        "test_budget_counter.py:test_count_tallies_calls_and_bytecodes_by_layer.<locals>.<lambda>",
    ]


def test_one_pass_calls_equal_setprofile_calls_across_a_generator_resume():
    data = make_srh(["fc00::1", "fc00::2"], next_header=17, tlvs=[Tlv(5, bytes(4))] * 3).pack()
    events = []
    sys.setprofile(lambda _frame, event, _arg: events.append(event))
    try:
        assert validate_srh_wire(data) is None
    finally:
        sys.setprofile(None)
    tallies = count(validate_srh_wire, data, by=function)
    assert sum(calls for calls, _b in tallies.values()) == events.count("call")
    assert tallies["net/srh.py:_walk_tlvs"][0] == 5  # started, then resumed after each of 3 TLVs and a PadN



def test_no_collection_runs_inside_the_count():
    """One would run the finalizers of garbage left from before, and count them."""
    starts, during = [], []

    def note(phase, _info):
        if phase == "start":
            starts.append(phase)

    def churn():  # enough live new containers to start collections, were the collector on
        seen = len(starts)
        kept = [[] for _ in range(1000)]
        during.append(len(starts) - seen)
        return kept

    threshold = gc.get_threshold()
    gc.callbacks.append(note)
    gc.set_threshold(1)
    try:
        count(churn)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(note)
    assert during == [0] and gc.isenabled()
