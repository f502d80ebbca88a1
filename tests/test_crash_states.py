"""Every power-loss state of a recorded trace reopens to a consistent store.

A scenario runs against a filesystem store and an on-disk index while
``powerloss.Recorder`` logs each durable call: two imports, a metadata
update, and a delete that compacts the index log. ``powerloss`` builds the
trees a power loss may leave after any step of that trace, at most
``BUDGET`` of them, chosen by the fixed ``SEED`` from every cut. Each is
reopened with reconciliation and must:

- open;
- hold an index that answers what ``evaluate_oracle`` accepts over the
  chunks the store holds;
- hold, whole, every import whose ``202`` was sent before the cut, keep
  every update acknowledged before it, and not bring back any chunk whose
  delete was acknowledged before it.

A failure names the cut and which unsynced steps the state kept, so that
``powerloss.build`` can rebuild the state by hand.
"""

import os
import queue
import shutil
import stat
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from georocket import durable
from georocket.indexer import build_document
from georocket.model import MetadataDelta, parse_layer_path
from georocket.query import MatchAll, evaluate_oracle, parse_query
from georocket.server import GeoRocketApp, ServerConfig
from georocket.server import app as app_module

import powerloss
from gendata import make_citygml, make_geojson

SEED = 20261020
BUDGET = 200

QUERIES = ["", "renovated", "EQ(height 5.0)", "GT(height 5.5)", "building", "Schildergasse",
           "6.8,50.9,6.8012,50.9004", "NOT(renovated)", "OR(EQ(height 10.0) EQ(height 6.0))"]


class _Turns(queue.Queue):
    """The index queue, whose worker takes a batch only when the test gives it
    a turn, so the worker's log appends fall at the same place in every run."""

    def __init__(self, maxsize=0):
        super().__init__(maxsize)
        self.turns = threading.Semaphore(0)

    def get(self, block=True, timeout=None):
        if block:  # ``get_nowait`` fills the batch without a turn
            self.turns.acquire()
        return super().get(block, timeout)


def _config(root: Path) -> ServerConfig:
    return ServerConfig(store_backend="filesystem", store_path=str(root / "store"),
                        index_path=str(root / "index"), reconcile_on_start=True)


def _indexed(app, task, timeout=30.0) -> None:
    """Let the worker index the waiting batch of ``task``, and wait for it."""
    app._queue.turns.release()
    deadline = time.monotonic() + timeout
    while not task.is_terminal():
        assert time.monotonic() < deadline, "import not indexed"
        time.sleep(0.002)
    assert task.state.value == "FINISHED", task.error


def _record(root: Path, monkeypatch) -> powerloss.Recorder:
    """Run the scenario on a new store under ``root`` and return its trace."""
    with monkeypatch.context() as patch:
        patch.setattr(app_module, "queue", SimpleNamespace(Queue=_Turns, Empty=queue.Empty))
        app = GeoRocketApp(_config(root))
    recorder = powerloss.Recorder(root)
    try:
        with monkeypatch.context() as patch:
            recorder.install(patch)
            for layer, body in (("/a", make_geojson(3)), ("/b/c", make_citygml(2))):
                task = app.import_stream(parse_layer_path(layer), [body])
                ids = task.chunk_ids
                recorder.mark("import acknowledged",
                              chunks={i: app.store.get(i).content for i in ids})
                _indexed(app, task)
            root_layer = parse_layer_path("/")
            updated = app.index.query(parse_query("EQ(height 5.5)"), root_layer)
            assert app.update_metadata(root_layer, "EQ(height 5.5)",
                                       MetadataDelta(add_tags=frozenset({"renovated"}))) == 1
            recorder.mark("update acknowledged", ids=updated, tag="renovated")
            doomed = "OR(EQ(height 6.0) EQ(height 12.0))"
            ids = app.index.query(parse_query(doomed), root_layer)
            assert len(ids) == 2
            recorder.mark("delete sent", ids=ids)
            assert app.delete(root_layer, doomed) == 2
            recorder.mark("delete acknowledged", ids=ids)
            assert app.index.compactions == 1  # 7 records in the log, 3 of them live
    finally:
        app._queue.turns.release()  # for the stop item
        app.close()
    return recorder


def _problems(app, marks, cut) -> list[str]:
    """What the reopened ``app`` gets wrong for a cut after ``cut`` steps."""
    problems = []
    stored = {i: app.store.get(i) for i in app.store.scan()}
    if set(app.index.all_ids()) != set(stored):
        problems.append(f"index ids {sorted(app.index.all_ids())} != store ids {sorted(stored)}")
    docs = [build_document(e) for e in stored.values()]
    for text in QUERIES:
        ast = parse_query(text) if text else MatchAll()
        expected = {d.chunk_id for d in docs if evaluate_oracle(ast, d)}
        got = set(app.index.query(ast))
        if got != expected:
            problems.append(f"query {text!r}: index {sorted(got)}, oracle {sorted(expected)}")
    before = [(event, info) for at, event, info in marks if at <= cut]
    touched = {i for event, info in before if event == "delete sent" for i in info["ids"]}
    for event, info in before:
        if event == "import acknowledged":
            for i, content in info["chunks"].items():
                if i not in touched and (i not in stored or stored[i].content != content):
                    problems.append(f"acknowledged chunk {i} lost or changed")
        elif event == "update acknowledged":
            for i in info["ids"]:
                if i not in touched and info["tag"] not in stored[i].metadata.tags:
                    problems.append(f"acknowledged update of {i} lost")
        elif event == "delete acknowledged":
            problems += [f"deleted chunk {i} came back" for i in info["ids"] if i in stored]
    return problems


def test_every_power_loss_state_reopens_consistent(tmp_path, monkeypatch):
    recorder = _record(tmp_path / "live", monkeypatch)
    all_steps, marks, states = powerloss.crash_states(recorder, BUDGET, SEED)
    assert len(states) <= BUDGET
    assert {s.cut for s in states} == set(range(len(all_steps) + 1))  # every cut
    torn = [s for s in states if any(0 < s.kept_bytes.get(ino, 0) < total for ino, total
                                     in powerloss.unsynced(all_steps, s.cut)[1].items())]
    assert len(torn) >= 4  # each of the four log appends, cut halfway
    failures = []
    for n, state in enumerate(states):
        root = tmp_path / f"state{n}"
        powerloss.materialise(state, root)
        try:
            app = GeoRocketApp(_config(root))
        except Exception as e:
            failures.append(f"does not open ({e!r}): {state.describe(all_steps)}")
            continue
        try:
            problems = _problems(app, marks, state.cut)
        except Exception as e:
            problems = [f"check raised {e!r}"]
        finally:
            app.close()
        if problems:
            failures.append(f"{problems}: {state.describe(all_steps)}")
        shutil.rmtree(root)
    assert not failures, (f"{len(failures)} of {len(states)} states (seed {SEED}) fail; first: "
                          + "\n".join(failures[:3]))


def _syscalls(root: Path, monkeypatch) -> list[tuple]:
    """Record the file-system calls ``durable`` makes under ``root``, as steps."""
    calls = []
    dirs = {}  # (device, inode) -> relative path, for the syncs of directories

    def rel(path):
        return Path(path).relative_to(root).as_posix()

    def fsync(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            calls.append(("dirsync", dirs[st.st_dev, st.st_ino]))
        else:
            calls.append(("fsync",))

    def mkdir(path, *args):
        os_mkdir(path, *args)
        st = os.stat(path)
        dirs[st.st_dev, st.st_ino] = rel(path)
        calls.append(("mkdir", rel(path)))

    def replace(src, dst):
        os_replace(src, dst)
        calls.append(("rename", rel(src), rel(dst)))

    def unlink(path):
        os_unlink(path)
        calls.append(("unlink", rel(path)))

    os_mkdir, os_replace, os_unlink = os.mkdir, os.replace, os.unlink
    st = os.stat(root)
    dirs[st.st_dev, st.st_ino] = "."
    for name, fn in (("fsync", fsync), ("mkdir", mkdir), ("replace", replace), ("unlink", unlink)):
        monkeypatch.setattr(os, name, fn)
    return calls


def test_the_model_takes_the_steps_the_module_takes(tmp_path, monkeypatch, real_sync):
    """Every sync, rename, unlink and mkdir of ``durable``, in order, is the
    step that ``powerloss.steps`` assumes, and the tree it ends in is the
    tree on disk."""
    root = tmp_path / "root"
    root.mkdir()
    (root / "old").write_bytes(b"kept\n")
    recorder = powerloss.Recorder(root)
    recorder.install(monkeypatch)
    calls = _syscalls(root, monkeypatch)
    durable.mkdir(root / "a" / "b")
    durable.mkdir(root / "a")
    durable.write_atomic(root / "a" / "b" / "x", b"one")
    durable.write_atomic(root / "a" / "b" / "x", iter([b"two\n", b"lines\n"]))
    durable.write_atomic(root / "a" / "y", b"")
    with open(root / "old", "a", encoding="utf-8") as f:
        durable.append(f, "more\n")
    durable.remove(p for p in (root / "a" / "b" / "x", root / "a" / "y", root / "a" / "z"))
    monkeypatch.undo()

    all_steps, _ = powerloss.steps(recorder)
    expected = [step[:1] if step[0] == "fsync" else step[:3] if step[0] == "rename" else step
                for step in all_steps if step[0] not in ("create", "write")]
    assert calls == expected
    final = powerloss.build(recorder, all_steps, len(all_steps), frozenset(), {})
    on_disk = {p.relative_to(root).as_posix(): p.read_bytes()
               for p in root.rglob("*") if p.is_file()}
    assert final.files == on_disk == {"old": b"kept\nmore\n"}
    assert final.dirs == {".", "a", "a/b"}


def test_a_state_keeps_only_what_was_synced(tmp_path, monkeypatch):
    """Spot checks of the model: an unsynced append is dropped, kept or torn,
    and a rename is lost until its directory is synced."""
    root = tmp_path / "root"
    (root / "d").mkdir(parents=True)
    (root / "log").write_bytes(b"head\n")
    recorder = powerloss.Recorder(root)
    recorder.install(monkeypatch)
    with open(root / "log", "a", encoding="utf-8") as f:
        durable.append(f, "tail\n")
    durable.write_atomic(root / "d" / "f", b"new")
    monkeypatch.undo()
    all_steps, _ = powerloss.steps(recorder)
    assert [s[0] for s in all_steps] == ["write", "fsync", "create", "write", "fsync",
                                        "rename", "dirsync"]
    log = all_steps[0][1]
    for kept, content in ((0, b"head\n"), (2, b"head\nta"), (5, b"head\ntail\n")):
        state = powerloss.build(recorder, all_steps, 1, frozenset(), {log: kept})
        assert state.files["log"] == content
    assert powerloss.build(recorder, all_steps, 2, frozenset(), {}).files["log"] == b"head\ntail\n"
    # cut after the rename: the temp name and the rename are both unsynced
    assert "d/f" not in powerloss.build(recorder, all_steps, 6, frozenset(), {}).files
    only_rename = powerloss.build(recorder, all_steps, 6, frozenset({5}), {})
    assert only_rename.files["d/f"] == b"new" and "d/f.tmp" not in only_rename.files
    only_create = powerloss.build(recorder, all_steps, 6, frozenset({2}), {})
    assert only_create.files["d/f.tmp"] == b"new" and "d/f" not in only_create.files
    assert powerloss.build(recorder, all_steps, 7, frozenset(), {}).files["d/f"] == b"new"


@pytest.mark.parametrize("kept", [False, True])
def test_a_directory_that_did_not_survive_takes_its_files_with_it(tmp_path, kept):
    recorder = powerloss.Recorder(tmp_path)
    all_steps = [("mkdir", "d"), ("create", "d/f", 0), ("write", 0, b"x"), ("fsync", 0),
                 ("dirsync", "d")]  # the new directory is never synced in its parent
    state = powerloss.build(recorder, all_steps, len(all_steps), frozenset({0} if kept else ()), {})
    assert state.files == ({"d/f": b"x"} if kept else {})
