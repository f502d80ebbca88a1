"""The file trees a power loss may leave, built from a trace of durable calls.

``Recorder`` wraps the operations of ``georocket.durable`` and logs each call
with its arguments, paths relative to one root. ``steps`` expands a trace
into the POSIX steps each call is made of, the same steps the module takes
(``tests/test_crash_states.py`` checks that). ``crash_states`` then builds,
for a cut after any step, the trees that POSIX lets survive, after the
method of ALICE (Pillai et al., OSDI 2014) and CrashMonkey (Mohan et al.,
OSDI 2018), on plain files:

- Data written to a file and synced stays.
- Data written and not yet synced is dropped, kept whole, or torn (a prefix
  of it is kept).
- A new name, rename, unlink or mkdir stays once its directory is synced.
  Before that, each is applied or not, independently of the others.
- A name under a directory that did not survive is gone.

What was on disk when recording began counts as synced, except the entries
named ``unsynced``: a process killed before it synced their directory left
them there. The trace begins by making each of them, its data synced and
its name not, so a power loss keeps it only once a later sync of its
directory has run.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from georocket import durable


class Recorder:
    """Log every durable call made under ``root``, with marks in between.

    ``unsynced`` names entries of the tree, relative to ``root``, whose names
    are not yet durable when recording begins."""

    def __init__(self, root, unsynced=()):
        self.root = Path(root)
        self.unsynced = set(unsynced)
        self.trace: list[tuple] = []
        self.files: dict[str, bytes] = {}  # the synced tree when recording began
        self.dirs: set[str] = {"."}
        self._lock = threading.Lock()

    def install(self, monkeypatch) -> None:
        for path in sorted(self.root.rglob("*")):
            rel = self._rel(path)
            data = None if path.is_dir() else path.read_bytes()
            if rel in self.unsynced:
                self.trace.append(("made", rel, data))
            elif data is None:
                self.dirs.add(rel)
            else:
                self.files[rel] = data
        for name in ("write_atomic", "append", "remove", "mkdir", "sync_dirs"):
            monkeypatch.setattr(durable, name, self._wrap(name, getattr(durable, name)))

    def mark(self, event: str, **info) -> None:
        """Note an event of the program, such as a response sent, at this point."""
        with self._lock:
            self.trace.append(("mark", event, info))

    def _rel(self, path) -> str:
        return Path(path).relative_to(self.root).as_posix()

    def _wrap(self, name, fn):
        def recorded(target, data=None):
            with self._lock:  # one call at a time, so the trace is the order they ran in
                if name == "write_atomic":
                    data = data if isinstance(data, bytes) else b"".join(data)
                    self.trace.append((name, self._rel(target), data))
                    return fn(target, data)
                if name == "append":
                    raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
                    self.trace.append((name, self._rel(target.name), raw))
                    return fn(target, data)
                if name in ("remove", "sync_dirs"):
                    target = list(target)
                    self.trace.append((name, [self._rel(p) for p in target]))
                    return fn(target)
                self.trace.append((name, self._rel(target)))
                return fn(target)

        return recorded


def _parent(path: str) -> str:
    return str(PurePosixPath(path).parent)


def steps(recorder: Recorder) -> tuple[list[tuple], list[tuple]]:
    """The trace as POSIX steps, and the marks as ``(step count, event, info)``.

    Steps are ``("create", name, inode)``, ``("write", inode, bytes)``,
    ``("fsync", inode)``, ``("rename", src, dst, inode)``, ``("unlink",
    name)``, ``("mkdir", name)`` and ``("dirsync", directory)``. An entry
    left unsynced before recording began is made by a ``mkdir``, or by a
    synced ``create`` and ``write``, with no sync of its directory."""
    names = {path: ("old", path) for path in recorder.files}  # as the program saw them
    dirs = set(recorder.dirs)
    inodes = itertools.count()
    out: list[tuple] = []
    marks: list[tuple] = []
    for call in recorder.trace:
        kind = call[0]
        if kind == "mark":
            marks.append((len(out), call[1], call[2]))
        elif kind == "made":
            _, path, data = call
            if data is None:
                out.append(("mkdir", path))
                dirs.add(path)
            else:
                ino = next(inodes)
                out += [("create", path, ino), ("write", ino, data), ("fsync", ino)]
                names[path] = ino
        elif kind == "write_atomic":
            _, path, data = call
            tmp, ino = path + ".tmp", next(inodes)
            out += [("create", tmp, ino), ("write", ino, data), ("fsync", ino),
                    ("rename", tmp, path, ino), ("dirsync", _parent(path))]
            names.pop(tmp, None)
            names[path] = ino
        elif kind == "append":
            _, path, data = call
            out += [("write", names[path], data), ("fsync", names[path])]
        elif kind == "remove":
            gone = [p for p in call[1] if p in names]
            out += [("unlink", p) for p in gone]
            out += [("dirsync", d) for d in dict.fromkeys(map(_parent, gone))]
            for p in gone:
                del names[p]
        elif kind == "mkdir":
            missing = []
            path = call[1]
            while path not in dirs:
                missing.append(path)
                path = _parent(path)
            for path in reversed(missing):
                out += [("mkdir", path), ("dirsync", _parent(path))]
                dirs.add(path)
        elif kind == "sync_dirs":
            out += [("dirsync", d) for d in call[1]]
        else:
            raise ValueError(f"unknown durable call {kind!r}")
    return out, marks


def _entry_dir(step) -> str | None:
    """The directory whose sync makes a name step stay, or None for data steps."""
    if step[0] in ("create", "unlink", "mkdir"):
        return _parent(step[1])
    if step[0] == "rename":
        return _parent(step[2])
    return None


@dataclass
class CrashState:
    """The tree after a cut following ``cut`` steps, with the unsynced steps it kept."""

    cut: int
    kept: frozenset  # indices of unsynced name steps applied
    kept_bytes: dict  # inode -> how many of its unsynced bytes stay
    files: dict  # relative path -> content
    dirs: set

    def describe(self, all_steps: list[tuple]) -> str:
        def show(i):
            step = all_steps[i]
            if step[0] == "write":
                return f"#{i} write {len(step[2])} bytes to inode {step[1]}"
            return f"#{i} " + " ".join(str(a) for a in step)

        pending_names, pending_data = unsynced(all_steps, self.cut)
        applied = [show(i) for i in pending_names if i in self.kept]
        dropped = [show(i) for i in pending_names if i not in self.kept]
        data = [f"inode {ino}: {self.kept_bytes.get(ino, 0)} of {total} unsynced bytes kept"
                for ino, total in pending_data.items()]
        last = show(self.cut - 1) if self.cut else "nothing"
        return (f"cut after step {self.cut} of {len(all_steps)} (last: {last}); "
                f"unsynced name steps applied: {applied or 'none'}; "
                f"dropped: {dropped or 'none'}; data: {data or 'all synced'}")


def unsynced(all_steps, cut) -> tuple[list[int], dict]:
    """Name steps before ``cut`` that no later directory sync covers, and the
    unsynced byte count of each inode."""
    pending_names = []
    pending_data: dict = {}
    for i, step in enumerate(all_steps[:cut]):
        directory = _entry_dir(step)
        if directory is not None:
            if not any(s == ("dirsync", directory) for s in all_steps[i + 1:cut]):
                pending_names.append(i)
        elif step[0] == "write":
            pending_data[step[1]] = pending_data.get(step[1], 0) + len(step[2])
        elif step[0] == "fsync":
            pending_data.pop(step[1], None)
    return pending_names, pending_data


def build(recorder: Recorder, all_steps, cut: int, kept, kept_bytes) -> CrashState:
    """The tree after ``cut`` steps, applying only the unsynced name steps in
    ``kept`` and keeping ``kept_bytes[inode]`` of each inode's unsynced bytes."""
    pending_names, pending_data = unsynced(all_steps, cut)
    pending = set(pending_names)
    content = {("old", p): data for p, data in recorder.files.items()}
    synced_len = {ino: len(data) for ino, data in content.items()}
    names = {p: ("old", p) for p in recorder.files}
    dirs = set(recorder.dirs)
    for i, step in enumerate(all_steps[:cut]):
        kind = step[0]
        if kind == "write":
            content[step[1]] = content.get(step[1], b"") + step[2]
        elif kind == "fsync":
            synced_len[step[1]] = len(content.get(step[1], b""))
        elif kind != "dirsync" and (i not in pending or i in kept):
            if kind == "create":
                names[step[1]] = step[2]
            elif kind == "rename":
                names.pop(step[1], None)
                names[step[2]] = step[3]
            elif kind == "unlink":
                names.pop(step[1], None)
            elif kind == "mkdir":
                dirs.add(step[1])
    for ino in pending_data:
        data = content.get(ino, b"")
        content[ino] = data[:synced_len.get(ino, 0) + kept_bytes.get(ino, 0)]

    def reachable(path):
        while path != ".":
            path = _parent(path)
            if path not in dirs:
                return False
        return True

    live_dirs = {d for d in dirs if reachable(d)}
    files = {p: content.get(ino, b"") for p, ino in names.items() if reachable(p)}
    return CrashState(cut, frozenset(kept), dict(kept_bytes), files, live_dirs)


def crash_states(recorder: Recorder, budget: int, seed: int):
    """Up to ``budget`` crash states, chosen by ``seed`` from every cut.

    Each cut gets the state that drops every unsynced step. Each cut with
    unsynced steps gets the one that keeps them all, and each cut with
    unsynced data the one that keeps half of it (a torn write). Random
    choices fill the rest of the budget."""
    all_steps, marks = steps(recorder)
    rng = random.Random(seed)
    pending = [unsynced(all_steps, cut) for cut in range(len(all_steps) + 1)]
    choices = [(cut, frozenset(), ()) for cut in range(len(pending))]
    for cut, (names, data) in enumerate(pending):
        if names or data:
            choices.append((cut, frozenset(names), tuple(sorted(data.items()))))
    for cut, (names, data) in enumerate(pending):
        if any(total > 1 for total in data.values()):
            halves = tuple((ino, total // 2) for ino, total in sorted(data.items()))
            choices.append((cut, frozenset(names), halves))
    open_cuts = [cut for cut, (names, data) in enumerate(pending) if names or data]
    seen = set(choices)
    for _ in range(budget * 20):
        if len(choices) >= budget or not open_cuts:
            break
        cut = rng.choice(open_cuts)
        names, data = pending[cut]
        kept = frozenset(i for i in names if rng.random() < 0.5)
        kept_bytes = tuple((ino, rng.choice([0, total, rng.randrange(1, total)] if total > 1
                                            else [0, total]))
                           for ino, total in sorted(data.items()))
        choice = (cut, kept, kept_bytes)
        if choice not in seen:
            seen.add(choice)
            choices.append(choice)
    if len(choices) > budget:
        raise ValueError(f"{len(choices)} crash states needed to cover every cut, "
                         f"more than the budget of {budget}")
    states = [build(recorder, all_steps, cut, kept, dict(kept_bytes))
              for cut, kept, kept_bytes in choices]
    return all_steps, marks, states


def materialise(state: CrashState, root: Path) -> None:
    """Write the state's tree under ``root``."""
    for d in sorted(state.dirs, key=lambda d: d.count("/")):
        (root / d).mkdir(parents=True, exist_ok=True)
    for path, data in state.files.items():
        (root / path).write_bytes(data)
