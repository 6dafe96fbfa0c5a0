"""Golden digests of every report page, text renderer and document CLI.

Each output below is rendered from the checked-in fixtures in ``data/``
and compared by sha256 against a recorded digest, so any change to a
byte of a page, a text summary, or a CLI's stdout/stderr/exit code
fails here.  Fixtures, not live runs: a live bundle embeds the code
fingerprint (which moves with every source edit), and live float sums
differ between Python versions.

The fixtures came from small real runs: ``profile.json`` and
``chrome.json`` (a Chrome trace, trimmed to its metadata plus the first
300 events) from ``hiss-experiments fig4 --quick --horizon-ms 1
--profile ... --trace ...``; ``sweep.jsonl`` (+ archive) from
``hiss-sweep run --seed 3 --budget 6 --round-size 3 --horizon-ms 1``;
``spans_a.json``, ``spans_b.json`` and ``postmortem.json`` from an
in-process ``HissService`` with a 50 ms e2e SLO serving two fig4 quick
jobs (1 and 1.5 ms, the second profiled); ``slos.json`` holds a tight
and a loose latency spec for the obsd ``ops_capture.jsonl`` replay.

To inspect an output after a deliberate change, call
:func:`render_all` on a scratch directory and look at the bytes.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import shutil
from typing import Dict, List

import pytest

from repro.flight import cli as flight_cli
from repro.flight.report import postmortem_text, render_postmortem_html
from repro.obsd import cli as obsd_cli
from repro.obsd.replay import replay_ops_log
from repro.obsd.report import (
    diff_text,
    evaluation_text,
    render_diff_html,
    render_evaluation_html,
    store_series,
)
from repro.obsd.slo import evaluate_slos, parse_slo_document
from repro.obsd.traces import trace_diff
from repro.profiling import cli as profiling_cli
from repro.profiling.report import render_html as profile_html
from repro.profiling.report import text_summary
from repro.search import cli as search_cli
from repro.search.driver import load_journal, replay_journal
from repro.search.report import frontier_table
from repro.search.report import render_html as sweep_html
from repro.search.space import default_space
from repro.telemetry import cli as trace_cli

DATA = pathlib.Path(__file__).parent / "data"
OPS_CAPTURE = pathlib.Path(__file__).parent.parent / "obsd" / "data" / "ops_capture.jsonl"


def _read(name: str):
    with open(name, encoding="utf-8") as handle:
        return json.load(handle)


def _write(name: str, document) -> None:
    with open(name, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _cli(main, *argv: str) -> bytes:
    """One CLI invocation as bytes: exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as stop:
            status = stop.code
    text = f"exit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return text.encode("utf-8")


def _file(name: str) -> bytes:
    with open(name, "rb") as handle:
        return handle.read()


def _invalid_inputs() -> None:
    """Broken twins of the fixtures, written into the current directory."""
    with open("broken.json", "w", encoding="utf-8") as handle:
        handle.write("{\"truncated\": ")
    profile = _read("profile.json")
    profile["runs"][0]["ledger"]["entries"][0]["ns"] += 1
    _write("bad_profile.json", profile)
    bundle = _read("postmortem.json")
    del bundle["trigger"]
    _write("bad_postmortem.json", bundle)
    _write("bad_slos.json", {"schema": "hiss.slo/1", "slos": [{"name": "x", "kind": "bogus"}]})
    _write("bad_trace.json", {"traceEvents": "nope"})
    spans = _read("spans_a.json")
    del spans["trace_id"]
    _write("bad_spans.json", spans)
    records = [json.loads(line) for line in open("sweep.jsonl", encoding="utf-8")]
    records[0]["schema"] = 2
    with open("bad_sweep.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _pages_and_texts(out: Dict[str, bytes]) -> None:
    profile = _read("profile.json")
    out["profile.html"] = profile_html(profile).encode()
    out["profile_run.html"] = profile_html(profile["runs"][0]).encode()
    out["profile_titled.html"] = profile_html(profile, title="<b>blame</b> & co").encode()
    out["profile.txt"] = text_summary(profile).encode()

    archive = _read("sweep.jsonl.archive.json")
    state = replay_journal(load_journal("sweep.jsonl"), default_space())
    evaluations = [(point, vector) for point, vector in state["archive"].values()]
    out["sweep.html"] = sweep_html(archive, evaluations).encode()
    out["sweep_bare.html"] = sweep_html(archive).encode()
    out["frontier.txt"] = frontier_table(archive).encode()

    capture = replay_ops_log("ops_capture.jsonl")
    report = evaluate_slos(parse_slo_document(_read("slos.json")), capture.store)
    capture_doc = capture.as_dict()
    series = store_series(capture.store)
    out["slo.html"] = render_evaluation_html(report, capture=capture_doc, series=series).encode()
    out["slo.txt"] = evaluation_text(report, capture=capture_doc).encode()
    alerts = _read("postmortem.json")["alerts"]
    out["alerts.html"] = render_evaluation_html(alerts).encode()
    out["alerts.txt"] = evaluation_text(alerts).encode()

    diff = trace_diff(_read("spans_a.json"), _read("spans_b.json"))
    out["diff.html"] = render_diff_html(diff).encode()
    out["diff.txt"] = diff_text(diff).encode()

    bundle = _read("postmortem.json")
    out["postmortem.html"] = render_postmortem_html(bundle).encode()
    out["postmortem.txt"] = postmortem_text(bundle).encode()
    sparse = copy.deepcopy(bundle)
    sparse.update(jobs=[], blame={"rows": []}, alerts=None, metrics={})
    sparse["flight_ring"]["entries"] = sparse["flight_ring"]["entries"][:1]
    out["postmortem_sparse.html"] = render_postmortem_html(sparse).encode()
    out["postmortem_sparse.txt"] = postmortem_text(sparse).encode()


def _report_cli(out: Dict[str, bytes]) -> None:
    run = profiling_cli.main
    out["hiss-report summary"] = _cli(run, "summary", "profile.json")
    out["hiss-report validate"] = _cli(run, "validate", "profile.json")
    out["hiss-report render"] = _cli(
        run, "render", "profile.json", "-o", "report.html", "--collapsed", "flame.txt"
    )
    out["hiss-report render: report.html"] = _file("report.html")
    out["hiss-report render: flame.txt"] = _file("flame.txt")
    out["hiss-report validate bad"] = _cli(run, "validate", "bad_profile.json")
    out["hiss-report summary bad"] = _cli(run, "summary", "bad_profile.json")
    out["hiss-report summary missing"] = _cli(run, "summary", "missing.json")
    out["hiss-report validate broken"] = _cli(run, "validate", "broken.json")


def _sweep_cli(out: Dict[str, bytes]) -> None:
    run = search_cli.main
    out["hiss-sweep report"] = _cli(run, "report", "--state", "sweep.jsonl", "-o", "frontier.html")
    out["hiss-sweep report: frontier.html"] = _file("frontier.html")
    out["hiss-sweep validate"] = _cli(run, "validate", "--state", "sweep.jsonl")
    out["hiss-sweep validate bad"] = _cli(run, "validate", "--state", "bad_sweep.jsonl")
    out["hiss-sweep report missing"] = _cli(run, "report", "--state", "missing.jsonl")


def _slo_cli(out: Dict[str, bytes]) -> None:
    run = obsd_cli.main
    ops = "ops_capture.jsonl"
    out["hiss-slo evaluate"] = _cli(
        run, "evaluate", "--ops", ops, "--slo", "slos.json", "-o", "slo.html"
    )
    out["hiss-slo evaluate: slo.html"] = _file("slo.html")
    out["hiss-slo evaluate --json"] = _cli(run, "evaluate", "--ops", ops, "--json")
    out["hiss-slo evaluate --fail-on-firing"] = _cli(
        run, "evaluate", "--ops", ops, "--slo", "slos.json", "--fail-on-firing"
    )
    out["hiss-slo evaluate bad spec"] = _cli(run, "evaluate", "--ops", ops, "--slo", "bad_slos.json")
    out["hiss-slo validate"] = _cli(run, "validate", "slos.json")
    out["hiss-slo validate bad"] = _cli(run, "validate", "bad_slos.json")
    out["hiss-slo validate broken"] = _cli(run, "validate", "broken.json")
    out["hiss-slo validate missing"] = _cli(run, "validate", "missing.json")
    out["hiss-slo default-spec"] = _cli(run, "default-spec")
    out["hiss-slo diff"] = _cli(run, "diff", "spans_a.json", "spans_b.json", "-o", "diff.html")
    out["hiss-slo diff: diff.html"] = _file("diff.html")
    out["hiss-slo diff --json"] = _cli(run, "diff", "spans_a.json", "spans_b.json", "--json")
    out["hiss-slo diff broken"] = _cli(run, "diff", "spans_a.json", "broken.json")


def _postmortem_cli(out: Dict[str, bytes]) -> None:
    run = flight_cli.main
    bundle = _read("postmortem.json")
    os.mkdir("pm")
    shutil.copy("postmortem.json", os.path.join("pm", f"{bundle['id']}.json"))
    out["hiss-postmortem summary"] = _cli(run, "summary", "postmortem.json")
    out["hiss-postmortem validate"] = _cli(run, "validate", "postmortem.json", "bad_postmortem.json")
    out["hiss-postmortem render"] = _cli(run, "render", "postmortem.json", "-o", "pm.html")
    out["hiss-postmortem render: pm.html"] = _file("pm.html")
    out["hiss-postmortem list"] = _cli(run, "list", "pm")
    out["hiss-postmortem list empty"] = _cli(run, "list", "nowhere")
    out["hiss-postmortem summary bad"] = _cli(run, "summary", "bad_postmortem.json")
    out["hiss-postmortem validate broken"] = _cli(run, "validate", "broken.json")


def _trace_cli(out: Dict[str, bytes]) -> None:
    run = trace_cli.main
    out["hiss-trace validate"] = _cli(run, "validate", "chrome.json")
    out["hiss-trace validate --spans"] = _cli(run, "validate", "--spans", "spans_a.json")
    out["hiss-trace summary"] = _cli(run, "summary", "chrome.json")
    out["hiss-trace timeline"] = _cli(
        run, "timeline", "chrome.json", "--track", "idlexbfs@1ms | core 0", "--limit", "25"
    )
    out["hiss-trace timeline unknown"] = _cli(run, "timeline", "chrome.json", "--track", "nope")
    out["hiss-trace validate bad"] = _cli(run, "validate", "bad_trace.json")
    out["hiss-trace validate --spans bad"] = _cli(run, "validate", "--spans", "bad_spans.json")
    out["hiss-trace summary missing"] = _cli(run, "summary", "missing.json")


def render_all(workdir: str) -> Dict[str, bytes]:
    """Every golden output, rendered from fixture copies in ``workdir``."""
    for path in list(DATA.iterdir()) + [OPS_CAPTURE]:
        shutil.copy(str(path), workdir)
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        _invalid_inputs()
        out: Dict[str, bytes] = {}
        _pages_and_texts(out)
        _report_cli(out)
        _sweep_cli(out)
        _slo_cli(out)
        _postmortem_cli(out)
        _trace_cli(out)
        return out
    finally:
        os.chdir(previous)


GOLDEN: Dict[str, str] = {
    'alerts.html': '8f059b8998fc03ef379a8b78039e409627bc8f943202dde7f2a328be30987dae',
    'alerts.txt': 'b417a34317d3c19bcdd5db3a234b6b7b416b9eb6faef918b4e2fa062b620dbf3',
    'diff.html': 'd0aafa62df1c9a9a848ec193b4f9325e5ed1c85b2722f876d90ec9b615e3dff2',
    'diff.txt': '5bbb0eca8b71550c19809d50fc61019ece0c3b778b39fa53d0364cb8f4def0b8',
    'frontier.txt': 'cd3b11765b75d39156a60942bb99b18a7e344a7d3d3b51ac160a431f556023c3',
    'hiss-postmortem list': '179a1082868978678ba78d789c7135c6c651f544ab92f9a1a5181ed3fe32c780',
    'hiss-postmortem list empty': 'eaf7c35ec9e8eafeab8eeaa12f7dae78046e35266f4ba81e4ab096d51182b9d5',
    'hiss-postmortem render': 'e714585c499c5692bc730d7204ce62f06b83e5bcd5e762dafa5aeef0c34fb37b',
    'hiss-postmortem render: pm.html': 'e45604b7cfa13acf2dc5ffca1f074157dde98f0ca09bfdab25815fe50a5e1f92',
    'hiss-postmortem summary': 'f2b4d5020834b717127704ddae80ac4469b585867526a5782423fade73b07e4a',
    'hiss-postmortem summary bad': 'a960e3a0375a1b357b7e1e760d3e7ffa73f939f7ec14cd198bdce6641873ffba',
    'hiss-postmortem validate': 'bed483a37a2e923605f8e93bf74aabc4d410628750f3672250c54e63e9aae3a2',
    'hiss-postmortem validate broken': 'c33059baf7ebe9113e7777d5f48aa85eb9a1a0f3f8ae097fdca57c5618362597',
    'hiss-report render': 'ccc19b1d98a0fbbd5acf02dd9b39226986faa76d663af72e77030835f8aee0a6',
    'hiss-report render: flame.txt': '9d6ddcd7e55a5732ace935daf2bc0c4ca2cd247b965e7f6a4cf262011af2ab79',
    'hiss-report render: report.html': '88232b78e11f22f593e6beeca118ffef2c7ebaf6a3f72a1cf6bb98ee6b545105',
    'hiss-report summary': '95d7941f3fcd33ea6f578ee6e90f6a6a8698eb2f49015eb60b511563617d03e6',
    'hiss-report summary bad': '7c8331c762e78d2f271a2620cf7e6b047d1dc4dfefaf4bf66aeed192b936e79c',
    'hiss-report summary missing': '015affbc84fffd5816dd43b41c86860661645f0aadbcfb730a4f4bef00f2fd57',
    'hiss-report validate': '65ff4c7324313e2f8126236dbe20762f6235b145f85aa6b2ce75540ea5a377cb',
    'hiss-report validate bad': '55fa40775ee0e299ab6cafa896c1232a03bbc425586403ee6fa9ad8939d61286',
    'hiss-report validate broken': '02e0b8ddd3c726673100d24428bcc2c245c4e887f609afa9ac6cab6802aabf57',
    'hiss-slo default-spec': '0e37ec86c27706cffc7eee189cea35962c40e7d3d6db3e1a3e324bb7cd8a34b0',
    'hiss-slo diff': '281d81404f69d7288903d2bbe9f0e4ac061466f02c3272d2fbc816778dd3c5ef',
    'hiss-slo diff --json': '16f18a23f64bf17407488deafe7d2dde175a59ab9826d181ea595db79b6b40ad',
    'hiss-slo diff broken': '9b6584d2c47b0cefcc99241db613a3c5971b6368774d1f1ffd1211c11cc56d64',
    'hiss-slo diff: diff.html': 'd0aafa62df1c9a9a848ec193b4f9325e5ed1c85b2722f876d90ec9b615e3dff2',
    'hiss-slo evaluate': 'd19fc330772d6d6a617dec9dea532a59f57003f3b8fb243c45ed9060e778c301',
    'hiss-slo evaluate --fail-on-firing': '1735b79d9cd334b95259fb9502fbcc2844178e30df9d482bf0a9f9140f953cfc',
    'hiss-slo evaluate --json': '61d95532db631157051ae69a9eadfd53e2f43c7ce1c3ac20ec1db3eb2fefdecb',
    'hiss-slo evaluate bad spec': 'a388670cc984593c97ef107083fc8acdf271088743bb3cadc3f55eeae6e86392',
    'hiss-slo evaluate: slo.html': '73150e5af5cf407b3777064a092075411f402a707ac93489005fd6d2d8e1ee0e',
    'hiss-slo validate': '7d788688f8968ee6e469651a27296bcf31a40687007e17eb551880769b4b4ea5',
    'hiss-slo validate bad': '290c447939fcb58d37c33104a24ad5d203e1dac730b279bb4666f7060e31db71',
    'hiss-slo validate broken': '4274872e778ce45df5e971af9a5203c17f672b8954ca431955a3cc6a37cdc7fb',
    'hiss-slo validate missing': '9981b9351783f72a4ce7650a8d7e84c338b9590f5fe72de25e43a8f72a041086',
    'hiss-sweep report': 'ed3506b544c8f4623bb33dcd12d893c78a701f64de7154e2a71a9f0a373e0f36',
    'hiss-sweep report missing': 'e8dad51e65345f0fd2921058367b698e6441291b7ab6447e351bcd17bde6a3da',
    'hiss-sweep report: frontier.html': '47c2c70b665df3509f4b1cd62a2a86759f4296febbdcafac103af7c4cd5aeae3',
    'hiss-sweep validate': '30396b42a2f9b917891da17ffc49b0107e9a71315d9c9804986d27dead1d2582',
    'hiss-sweep validate bad': 'c1067402d02ebb2dcc3eadf70dffe9ff314b1a34c9c86e0ed2ec1e649675165d',
    'hiss-trace summary': 'fdf4c5f138210b0c75770e285d28d17d47562437d0421d9aabf1c30f96cc34b6',
    'hiss-trace summary missing': '379cc5742a8f1d54ea17fa5d4262d91e3bb6b62972d738d7b1520496abfad4a8',
    'hiss-trace timeline': 'db7b446550000f30677a06e81a6a3a64c7df446d7f14077368b7dbc7b9197a97',
    'hiss-trace timeline unknown': 'e8dbfc8964d8a03f5081e3959fd47474afd4057e6068e0b19a662b775a71228a',
    'hiss-trace validate': 'a3510c6cb1b42f598593922f563be7e7455bf5b793cd254b8f8cb5acc799f078',
    'hiss-trace validate --spans': '0f8ae325b5642f2ee206b0f524412eb3b79c864a159ba53a900a78baff4abbd7',
    'hiss-trace validate --spans bad': 'a2367f18ac10118b90c17795c5ad199c503fba3f5fdaa3733b1b5f46a1e056b1',
    'hiss-trace validate bad': '5d247182a09a1844475a0ad21963b8b1ee8c9566a395ee4754a66790bdadddac',
    'postmortem.html': 'e45604b7cfa13acf2dc5ffca1f074157dde98f0ca09bfdab25815fe50a5e1f92',
    'postmortem.txt': '8aecafd98bc7b8af5a46797a220acd54e11bd8790321c41ee53b4c4a7c6d9626',
    'postmortem_sparse.html': '8f163ea33d9f3327c7e72f922d3bad839e24e919b5ca3bf9dd98679b3e44c198',
    'postmortem_sparse.txt': '452689870f93e5b346c9e631331f402aa1df80b20b49de37156c52a397891174',
    'profile.html': '88232b78e11f22f593e6beeca118ffef2c7ebaf6a3f72a1cf6bb98ee6b545105',
    'profile.txt': '31cb6d96cd67eb31f7eb85aae77dcd921e54d59b93cc7d9769b1dc499066fa88',
    'profile_run.html': '4fcd59b455ac003e1a88af75756aff52d283714559aecc913ecb363079634441',
    'profile_titled.html': '903db94a044ce3113c40bc88c22253cb18e8b889bf033b4595034617b4dc21ac',
    'slo.html': '73150e5af5cf407b3777064a092075411f402a707ac93489005fd6d2d8e1ee0e',
    'slo.txt': '5ee58d62c274be11291025bb4b6c1ad864275310e95c8699156d7b3919e966c7',
    'sweep.html': '47c2c70b665df3509f4b1cd62a2a86759f4296febbdcafac103af7c4cd5aeae3',
    'sweep_bare.html': '709efae43262cfb7d0cc6816a85dea0235ab40b3f28c15b4eb9a070063813d62',
}


@pytest.fixture(scope="module")
def rendered(tmp_path_factory) -> Dict[str, bytes]:
    return render_all(str(tmp_path_factory.mktemp("golden")))


def test_every_output_has_a_digest(rendered):
    assert sorted(rendered) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(rendered, name):
    assert hashlib.sha256(rendered[name]).hexdigest() == GOLDEN[name]


def digests(outputs: Dict[str, bytes]) -> List[str]:
    """``GOLDEN`` entries for ``outputs``, one source line each."""
    return [
        f"    {name!r}: {hashlib.sha256(data).hexdigest()!r},"
        for name, data in sorted(outputs.items())
    ]
