"""Run reports: cluster metrics collection and rendering."""

import json

from dataclasses import dataclass

from repro.chaos import reliable_transport
from repro.obs import RunReport, collect_cluster_metrics
from repro.runtime import install_crystalball
from repro.statemachine import Cluster, Message, Service, msg_handler, timer_handler


@dataclass
class Bump(Message):
    amount: int


class CounterService(Service):
    state_fields = ("value",)

    def __init__(self, node_id: int, n: int = 3) -> None:
        super().__init__(node_id)
        self.n = n
        self.value = 0

    def on_init(self) -> None:
        self.set_timer("bump", 1.0)

    @timer_handler("bump")
    def on_bump_timer(self, payload) -> None:
        self.send((self.node_id + 1) % self.n, Bump(amount=1))
        self.set_timer("bump", 1.0)

    @msg_handler(Bump)
    def on_bump(self, src: int, msg: Bump) -> None:
        self.value += msg.amount


def small_cluster(**cluster_kwargs):
    cluster = Cluster(3, CounterService, seed=1, **cluster_kwargs)
    install_crystalball(cluster, CounterService, checkpoint_period=0.5)
    cluster.start_all()
    cluster.run(until=3.0)
    return cluster


def test_collect_cluster_metrics_shape():
    metrics = collect_cluster_metrics(small_cluster())
    assert set(metrics) == {"sim", "trace", "network", "nodes"}
    assert metrics["sim"]["now"] == 3.0
    assert metrics["sim"]["events_dispatched"] > 0
    assert metrics["network"]["messages_sent"] > 0
    assert metrics["trace"]["records"] > 0
    assert set(metrics["nodes"]) == {0, 1, 2}
    node0 = metrics["nodes"][0]
    assert node0["up"] is True
    assert node0["runtime"]["checkpoints_sent"] > 0
    assert "steering" in node0
    assert "runtime.checkpoint_broadcast" in "".join(node0.get("spans", {}))


def test_run_report_renders_json_and_markdown(tmp_path):
    cluster = small_cluster()
    report = RunReport("unit/counter", collect_cluster_metrics(cluster), {"seed": 1})
    payload = json.loads(report.to_json())
    assert payload["title"] == "unit/counter"
    assert payload["context"] == {"seed": 1}
    assert "sim" in payload["metrics"]

    markdown = report.to_markdown()
    assert markdown.startswith("# Run report — unit/counter")
    assert "## network" in markdown
    assert "### node 0" in markdown
    assert "| messages_sent |" in markdown

    json_path = tmp_path / "report.json"
    md_path = tmp_path / "report.md"
    report.write(json_path=str(json_path), markdown_path=str(md_path))
    assert json.loads(json_path.read_text())["title"] == "unit/counter"
    assert md_path.read_text() == markdown


def test_run_report_markdown_handles_empty_sections():
    report = RunReport(title="empty", metrics={"sim": {}})
    assert "(empty)" in report.to_markdown()


def test_reliable_transport_shows_up_in_network_section():
    cluster = small_cluster(transport_wrapper=reliable_transport())
    section = collect_cluster_metrics(cluster)["network"]
    assert "reliable" in section
    assert section["reliable"]["sent"] > 0
    assert "pending" in section["reliable"]


def test_tree_run_node_sections_hold_only_what_a_report_reads():
    from repro.eval.tree_experiment import run_tree_experiment

    result = run_tree_experiment("choice-crystalball", n=9, seed=1, chain_depth=4, budget=120)
    sections = result.metrics["nodes"].values()
    base = {"up", "runtime", "epoch", "steering", "spans"}
    # A node that resolved a choice also carries its last prediction.
    assert {frozenset(s) for s in sections} == {frozenset(base), frozenset(base | {"prediction"})}
    for section in sections:
        assert set(section["steering"]) == {"refreshed", "active_filters"}
        for summary in section["spans"].values():
            assert set(summary) == {"count", "total_s", "mean_s", "min_s", "max_s"}
