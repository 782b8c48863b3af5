"""Output checks and digest on a small fixed ExperimentResult-shaped input."""

from types import SimpleNamespace

from checks import check_result, digest, failed_flows, port_counters

GBPS = 1_000_000_000


def flow(fid, size, fct):
    return SimpleNamespace(
        id=fid, size_bytes=size, fct_ns=fct, completed=fct is not None
    )


def port(name, rx, tx, drop):
    return {
        f"port.{name}.rx_pkts": rx,
        f"port.{name}.tx_pkts": tx,
        f"port.{name}.dropped_pkts": drop,
    }


def queue(name, i, enq, deq, marked):
    return {
        f"port.{name}.q{i}.enqueued_pkts": enq,
        f"port.{name}.q{i}.dequeued_pkts": deq,
        f"port.{name}.q{i}.marked_pkts": marked,
    }


def result(flows=None, metrics=None):
    flows = flows if flows is not None else [flow(0, 1500, 20_000), flow(1, 3000, 40_000)]
    if metrics is None:
        metrics = {
            **port("leaf0:h1", 10, 9, 1),
            **queue("leaf0:h1", 0, 9, 9, 2),
            **port("spine0:down1", 5, 5, 0),
            **queue("spine0:down1", 1, 5, 5, 0),
            "fct_ns": {"type": "histogram", "count": 2},
        }
    return SimpleNamespace(
        completed=sum(f.completed for f in flows),
        total=len(flows),
        flows=flows,
        metrics=metrics,
        config=SimpleNamespace(link_rate_bps=GBPS),
    )


def test_a_clean_result_passes():
    assert check_result(result()) == []


def test_port_and_queue_rows_are_parsed_by_owner():
    ports, queues = port_counters(result().metrics)
    assert sorted(ports) == ["leaf0:h1", "spine0:down1"]
    assert queues[("leaf0:h1", 0)]["marked_pkts"] == 2


def test_an_incomplete_flow_fails():
    r = result(flows=[flow(0, 1500, 20_000), flow(1, 3000, None)])
    assert failed_flows(r) == 1
    assert check_result(r) == ["completed 1 of 2 flows"]


def test_port_conservation():
    m = {**port("p", 10, 10, 1), **queue("p", 0, 10, 10, 0)}
    [problem] = check_result(result(metrics=m))
    assert "tx 10 + dropped 1 > rx 10" in problem


def test_queue_ordering_marked_dequeued_enqueued():
    for enq, deq, marked in ((5, 6, 0), (5, 5, 6)):
        m = {**port("p", 10, 5, 0), **queue("p", 0, enq, deq, marked)}
        [problem] = check_result(result(metrics=m))
        assert "p q0" in problem


def test_fct_below_serialization_time_fails():
    # 1500 B at 1 Gbps serialize in 12 us
    r = result(flows=[flow(0, 1500, 11_999)])
    [problem] = check_result(r)
    assert "flow 0" in problem
    assert check_result(result(flows=[flow(0, 1500, 12_000)])) == []


def test_digest_pins_fcts_and_counters():
    base = digest(result())
    assert digest(result()) == base
    assert digest(result(flows=[flow(0, 1500, 20_000), flow(1, 3000, 40_001)])) != base
    m = dict(result().metrics)
    m["port.leaf0:h1.tx_pkts"] = 8
    assert digest(result(metrics=m)) != base
