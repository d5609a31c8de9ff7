"""On-disk algebra cache: determinism, integrity guard, concurrent writers,
and a digest that matches hashlib's without loading OpenSSL."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from confsys import cache
from confsys.liealg import build_lie_algebra
from confsys.roots import RootSystemSpec, build_root_system

A3 = RootSystemSpec.parse("A3")
SUPPORTED = ["A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "D7", "D8",
             "E6", "E7", "E8"]


def test_build_writes_deterministic_payload(tmp_path):
    p1 = cache.build(A3, tmp_path / "one")
    p2 = cache.build(A3, tmp_path / "two")
    assert p1.name == p2.name == "algebra-A3-v2.json"
    assert p1.read_bytes() == p2.read_bytes()
    # only what the code cannot recompute: the layout comes from basis_layout
    assert set(json.loads(p1.read_text())) == {
        "schema", "family", "rank", "names", "table", "digest"}


@pytest.mark.parametrize("label", SUPPORTED)
def test_load_round_trips_the_algebra(tmp_path, label):
    # the construction and the cache take their layout from basis_layout;
    # a drift between the two shows here on every supported type
    spec = RootSystemSpec.parse(label)
    cached = cache.load(cache.build(spec, tmp_path))
    fresh = build_lie_algebra(build_root_system(spec), check=False)
    for field in ("names", "root_of", "index_of_root", "cartan_index", "grade",
                  "table"):
        assert getattr(cached, field) == getattr(fresh, field), field
    assert cached.rs.spec == spec


def test_names_that_differ_from_the_layout_are_rebuilt(tmp_path):
    # an entry written under another basis layout, with a valid digest
    path = cache.build(A3, tmp_path)
    good = path.read_bytes()
    body = json.loads(good)
    body.pop("digest")
    body["names"].reverse()
    body["digest"] = cache._digest(body)
    path.write_text(json.dumps(body))
    with pytest.raises(ValueError, match="basis layout"):
        cache.load(path)
    with pytest.warns(UserWarning, match="discarding unusable"):
        alg = cache.load_or_build(A3, tmp_path, check=False)
    assert alg.names == cache.load(path).names
    assert path.read_bytes() == good


def test_entry_of_another_type_is_rebuilt(tmp_path):
    # a valid D4 entry filed under A3's name
    good = cache.build(A3, tmp_path / "good").read_bytes()
    path = cache.cache_path(A3, tmp_path)
    shutil.copyfile(cache.build(RootSystemSpec.parse("D4"), tmp_path / "d4"),
                    path)
    with pytest.warns(UserWarning, match="discarding unusable.*holds D4"):
        alg = cache.load_or_build(A3, tmp_path, check=False)
    assert alg.rs.spec == A3
    assert len(alg.names) == 15
    assert path.read_bytes() == good


def _src_env():
    src = str(Path(cache.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def test_digest_is_hashlib_sha256_of_the_canonical_body(tmp_path):
    # entries written while the digest came from hashlib stay valid
    body = json.loads(cache.build(A3, tmp_path).read_text())
    digest = body.pop("digest")
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert digest == hashlib.sha256(canonical.encode()).hexdigest()


_WITHOUT_BUILTIN_SHA256 = """
import sys
from pathlib import Path
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from confsys import cache
from confsys.roots import RootSystemSpec
assert cache.sha256.__module__ in ("hashlib", "_hashlib"), cache.sha256
cache.build(RootSystemSpec.parse("A3"), Path(sys.argv[1]))
"""


def test_hashlib_fallback_writes_the_same_entry(tmp_path):
    expected = cache.build(A3, tmp_path / "builtin").read_bytes()
    subprocess.run([sys.executable, "-c", _WITHOUT_BUILTIN_SHA256,
                    str(tmp_path / "fallback")], env=_src_env(), check=True,
                   timeout=120)
    assert (tmp_path / "fallback" / "algebra-A3-v2.json").read_bytes() == \
        expected


_CLI_TWICE = """
import json
import sys
if "_hashlib" in sys.modules:
    print(json.dumps({"skip": "_hashlib was loaded before confsys"}))
    sys.exit()
import importlib.util
if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
    print(json.dumps({"skip": "neither _sha2 nor _sha256 is built in"}))
    sys.exit()
import os
import tempfile
from pathlib import Path
from confsys.cli import main
with tempfile.TemporaryDirectory() as tmp:
    entry = Path(tmp) / "algebra-A3-v2.json"
    args = ["verify", "--type", "A3", "--expect-no-omega3", "--cache-dir", tmp]
    codes = [main(args)]
    written = os.stat(entry)
    codes.append(main(args))
    read = os.stat(entry)
print(json.dumps({
    "codes": codes,
    "hit": (read.st_ino, read.st_mtime_ns)
           == (written.st_ino, written.st_mtime_ns),
    "hashlib_loaded": "_hashlib" in sys.modules}))
"""


def test_cli_process_never_loads_openssl():
    # a miss that dumps the entry, then a hit, in one fresh interpreter
    proc = subprocess.run([sys.executable, "-c", _CLI_TWICE],
                          env=_src_env(), capture_output=True, text=True,
                          check=True, timeout=120)
    result = json.loads(proc.stdout.splitlines()[-1])
    if "skip" in result:
        pytest.skip(result["skip"])
    assert result == {"codes": [0, 0], "hit": True, "hashlib_loaded": False}


def test_cache_dir_that_is_a_file_warns_and_builds(tmp_path):
    # the read fails (not a directory), then the write does: both only warn
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.warns(UserWarning) as record:
        alg = cache.load_or_build(A3, blocker, check=False)
    messages = [str(w.message) for w in record]
    assert len(messages) == 2
    assert messages[0].startswith("discarding unusable algebra cache")
    assert messages[1].startswith("cannot write algebra cache")
    assert alg.rank == 3
    assert blocker.read_text() == ""
    # a forced build is asked for the entry itself, so it still raises
    with pytest.raises(OSError):
        cache.build(A3, blocker)


def test_load_rejects_corruption(tmp_path):
    path = cache.build(A3, tmp_path)
    body = json.loads(path.read_text())
    body["rank"] = 4  # tamper without updating the digest
    path.write_text(json.dumps(body))
    with pytest.raises(ValueError, match="digest"):
        cache.load(path)


def test_load_rejects_schema_mismatch(tmp_path):
    path = cache.build(A3, tmp_path)
    body = json.loads(path.read_text())
    body["schema"] = 999
    path.write_text(json.dumps(body))
    with pytest.raises(ValueError, match="schema"):
        cache.load(path)


def test_load_or_build_recovers_from_corruption(tmp_path):
    path = cache.build(A3, tmp_path)
    path.write_text("{ not json")
    with pytest.warns(UserWarning, match="discarding unusable"):
        alg = cache.load_or_build(A3, tmp_path, check=False)
    assert alg.rank == 3
    # the cache entry was rewritten and is loadable again
    assert cache.load(path).rank == 3


@pytest.mark.parametrize("text", ["null", '"x"', "3", "[]"])
def test_entry_that_is_not_an_object_is_rebuilt(tmp_path, text):
    path = cache.build(A3, tmp_path)
    good = path.read_bytes()
    path.write_text(text)
    with pytest.raises(ValueError, match="not a JSON object"):
        cache.load(path)
    with pytest.warns(UserWarning, match="discarding unusable"):
        alg = cache.load_or_build(A3, tmp_path, check=False)
    assert alg.rank == 3
    assert path.read_bytes() == good


@pytest.mark.parametrize("constant", ["1/2", "-1.0"])
def test_non_integer_constant_is_rebuilt(tmp_path, constant):
    path = cache.build(A3, tmp_path)
    good = path.read_bytes()
    body = json.loads(good)
    body.pop("digest")
    row = next(r for line in body["table"] for r in line if r)
    row[0][1] = constant
    body["digest"] = cache._digest(body)
    path.write_text(json.dumps(body))
    with pytest.warns(UserWarning, match="discarding unusable"):
        alg = cache.load_or_build(A3, tmp_path, check=False)
    assert alg.rank == 3
    assert path.read_bytes() == good


def test_entry_removed_before_it_is_read_is_rebuilt(tmp_path, monkeypatch):
    # some other process deletes the entry after this one found it and
    # before it reads it: a plain miss, rebuilt without a warning
    path = cache.build(A3, tmp_path)
    load = cache.load

    def racing_load(p):
        path.unlink()
        return load(p)

    monkeypatch.setattr(cache, "load", racing_load)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alg = cache.load_or_build(A3, tmp_path, check=False)
    assert alg.rank == 3
    monkeypatch.undo()
    assert cache.load(path).names == alg.names


def test_env_var_selects_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "envdir"))
    assert cache.default_cache_dir() == tmp_path / "envdir"
    path = cache.build(A3)
    assert path.parent == tmp_path / "envdir"


def test_default_cache_dir_is_isolated_in_tests(isolated_cache_dir):
    assert cache.default_cache_dir().resolve().is_relative_to(
        isolated_cache_dir.resolve())


def test_interleaved_dumps_of_one_entry_do_not_collide(tmp_path, monkeypatch):
    alg = cache.load_or_build(A3, tmp_path / "source", check=False)
    path = cache.cache_path(A3, tmp_path / "shared")
    real_replace = os.replace
    interleaved = []

    def replace(src, dst):
        # a second writer of the same entry runs between this writer's
        # write and its rename
        if not interleaved:
            interleaved.append(src)
            cache.dump(alg, path)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    cache.dump(alg, path)
    assert interleaved
    assert cache.load(path).names == alg.names
    assert [p.name for p in path.parent.iterdir()] == [path.name]


_DUMP_LOOP = """
import sys
import warnings
from pathlib import Path
from confsys import cache
from confsys.roots import RootSystemSpec
spec = RootSystemSpec.parse("A3")
alg = cache.load(Path(sys.argv[1]))
path = cache.cache_path(spec, Path(sys.argv[2]))
for _ in range(200):
    cache.dump(alg, path)
"""


def test_two_processes_dumping_one_entry(tmp_path):
    source = cache.build(A3, tmp_path / "source")
    shared = tmp_path / "shared"
    procs = [subprocess.Popen([sys.executable, "-c", _DUMP_LOOP, str(source),
                               str(shared)], env=_src_env(),
                              stderr=subprocess.PIPE,
                              text=True)
             for _ in range(2)]
    try:
        errors = [p.communicate(timeout=120)[1] for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0], errors
    assert [p.name for p in shared.iterdir()] == [source.name]
    assert cache.load(shared / source.name).names == cache.load(source).names
