"""Tests for ``tools/fetch_benchmarks.py`` — download, pin, verify.

No network: every transfer goes through ``file://`` URLs into a temp
directory, which exercises the identical ``urllib`` code path the real
EPFL downloads use.  Tier-1 therefore never needs connectivity, and the
``--offline-ok`` escape hatch is covered with a URL that cannot resolve.
"""

import json
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS_DIR))

import fetch_benchmarks as fb  # noqa: E402


@pytest.fixture
def source(tmp_path):
    """A fake upstream: one circuit file served over ``file://``."""
    upstream = tmp_path / "upstream"
    upstream.mkdir()
    payload = b"aig 0 0 0 0 0\n"
    (upstream / "tiny.aig").write_bytes(payload)
    return {
        "entry": {"url": (upstream / "tiny.aig").as_uri(), "suite": "test"},
        "payload": payload,
        "upstream": upstream,
    }


class TestFetch:
    def test_first_fetch_pins(self, source, tmp_path):
        dest = tmp_path / "circuits"
        pins = {}
        path, updated = fb.fetch("tiny", source["entry"], dest, pins)
        assert updated
        assert path.read_bytes() == source["payload"]
        assert pins["tiny"] == fb.sha256_of(path)

    def test_verified_refetch_is_a_noop(self, source, tmp_path):
        dest = tmp_path / "circuits"
        pins = {}
        fb.fetch("tiny", source["entry"], dest, pins)
        path, updated = fb.fetch("tiny", source["entry"], dest, pins)
        assert not updated

    def test_on_disk_tamper_detected(self, source, tmp_path):
        dest = tmp_path / "circuits"
        pins = {}
        path, _ = fb.fetch("tiny", source["entry"], dest, pins)
        path.write_bytes(b"tampered")
        with pytest.raises(fb.FetchError, match="digest"):
            fb.fetch("tiny", source["entry"], dest, pins)

    def test_pinned_mismatch_refuses_write(self, source, tmp_path):
        dest = tmp_path / "circuits"
        pins = {"tiny": "0" * 64}
        with pytest.raises(fb.FetchError, match="does not match the"):
            fb.fetch("tiny", source["entry"], dest, pins)
        assert not (dest / "tiny.aig").exists()

    def test_force_redownload_verifies_pin(self, source, tmp_path):
        dest = tmp_path / "circuits"
        pins = {}
        fb.fetch("tiny", source["entry"], dest, pins)
        # upstream changes after pinning — a forced refetch must refuse
        (source["upstream"] / "tiny.aig").write_bytes(b"aig 1 1 0 0 0\n")
        with pytest.raises(fb.FetchError, match="does not match the"):
            fb.fetch("tiny", source["entry"], dest, pins, force=True)

    def test_dead_url_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fb.time, "sleep", lambda s: None)  # no real waits
        entry = {"url": (tmp_path / "missing.aig").as_uri()}
        with pytest.raises(fb.FetchError, match="download failed"):
            fb.fetch("gone", entry, tmp_path / "circuits", {})


class TestManifestAndPins:
    def test_builtin_manifest_covers_epfl(self):
        manifest = fb.load_manifest()
        assert len(manifest) == 20
        assert manifest["adder"]["suite"] == "epfl-arithmetic"
        assert manifest["voter"]["url"].endswith("/random_control/voter.aig")

    def test_user_manifest_requires_url(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"x": {"suite": "s"}}))
        with pytest.raises(fb.FetchError, match="no 'url'"):
            fb.load_manifest(bad)

    def test_path_entry_resolves_relative_to_manifest(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "local.aig").write_bytes(b"aig 0 0 0 0 0\n")
        manifest_file = tmp_path / "manifest.json"
        manifest_file.write_text(json.dumps({"local": {"path": "sub/local.aig"}}))
        manifest = fb.load_manifest(manifest_file)
        assert manifest["local"]["url"] == (tmp_path / "sub" / "local.aig").as_uri()
        assert manifest["local"]["filename"] == "local.aig"

    def test_pins_roundtrip_sorted(self, tmp_path):
        lockfile = tmp_path / "locks" / "pins.json"
        fb.save_pins(lockfile, {"b": "2" * 64, "a": "1" * 64})
        assert list(fb.load_pins(lockfile)) == ["a", "b"]
        assert fb.load_pins(tmp_path / "absent.json") == {}


class TestCli:
    def _manifest_file(self, source, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tiny": source["entry"]}))
        return manifest

    def test_fetch_and_pin_via_cli(self, source, tmp_path, capsys):
        manifest = self._manifest_file(source, tmp_path)
        lockfile = tmp_path / "pins.json"
        dest = tmp_path / "circuits"
        argv = ["--manifest", str(manifest), "--lockfile", str(lockfile),
                "--dest", str(dest)]
        assert fb.main(argv) == 0
        assert "newly pinned" in capsys.readouterr().out
        assert (dest / "tiny.aig").exists()
        assert "tiny" in fb.load_pins(lockfile)
        # second run verifies against the committed pin, changes nothing
        assert fb.main(argv) == 0
        assert "verified" in capsys.readouterr().out

    def test_unknown_name_rejected(self, source, tmp_path):
        manifest = self._manifest_file(source, tmp_path)
        with pytest.raises(SystemExit):
            fb.main(["nonesuch", "--manifest", str(manifest)])

    def test_offline_ok_downgrades_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fb.time, "sleep", lambda s: None)  # no real waits
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"gone": {"url": (tmp_path / "missing.aig").as_uri()}}
        ))
        argv = ["--manifest", str(manifest), "--lockfile",
                str(tmp_path / "pins.json"), "--dest", str(tmp_path / "c")]
        assert fb.main(argv) == 1
        assert fb.main(argv + ["--offline-ok"]) == 0
        assert "continuing" in capsys.readouterr().err

    def test_list_prints_manifest(self, source, tmp_path, capsys):
        manifest = self._manifest_file(source, tmp_path)
        assert fb.main(["--list", "--manifest", str(manifest)]) == 0
        assert "tiny" in capsys.readouterr().out


class TestCommittedIscasManifest:
    """The committed ISCAS manifest + lockfile round-trip over ``file://``.

    The ``c17`` entry points at a repo-local AIGER file with an inline
    SHA-256 pin, so the whole download → verify → pin path runs against
    committed bytes without any network.
    """

    MANIFEST = TOOLS_DIR / "benchmarks.iscas.json"
    LOCKFILE = TOOLS_DIR / "benchmarks.sha256.json"

    def test_manifest_loads_and_c17_is_local(self):
        manifest = fb.load_manifest(self.MANIFEST)
        assert manifest["c17"]["url"].startswith("file://")
        assert all(e["suite"] == "iscas85" for e in manifest.values())
        # remote entries stay trust-on-first-use: no fabricated pins
        remote = [n for n, e in manifest.items() if e["url"].startswith("https://")]
        pins = fb.load_pins(self.LOCKFILE)
        assert remote and not any(n in pins for n in remote)

    def test_c17_round_trip_matches_committed_lockfile(self, tmp_path):
        manifest = fb.load_manifest(self.MANIFEST)
        pins = {}
        path, updated = fb.fetch("c17", manifest["c17"], tmp_path / "c", pins)
        assert updated  # inline manifest pin seeds a fresh lockfile
        assert pins["c17"] == fb.load_pins(self.LOCKFILE)["c17"]
        # and the committed bytes really are the classic six-NAND c17
        from repro.mig.io_aiger import read_aiger

        mig = read_aiger(path)
        assert (mig.num_pis, mig.num_pos) == (5, 2)

    def test_against_committed_lockfile_verifies_silently(self, tmp_path):
        manifest = fb.load_manifest(self.MANIFEST)
        pins = dict(fb.load_pins(self.LOCKFILE))
        path, updated = fb.fetch("c17", manifest["c17"], tmp_path / "c", pins)
        assert not updated  # pin already frozen, nothing to re-record

    def test_inline_pin_mismatch_refuses(self, tmp_path):
        manifest = fb.load_manifest(self.MANIFEST)
        entry = dict(manifest["c17"], sha256="0" * 64)
        with pytest.raises(fb.FetchError, match="does not match the"):
            fb.fetch("c17", entry, tmp_path / "c", {})

    def test_inline_pin_conflicting_lockfile_refuses(self, tmp_path):
        manifest = fb.load_manifest(self.MANIFEST)
        with pytest.raises(fb.FetchError, match="resolve the conflict"):
            fb.fetch("c17", manifest["c17"], tmp_path / "c", {"c17": "1" * 64})

    def test_cli_round_trip_with_committed_manifest(self, tmp_path, capsys):
        lockfile = tmp_path / "pins.json"
        argv = ["c17", "--manifest", str(self.MANIFEST),
                "--lockfile", str(lockfile), "--dest", str(tmp_path / "c")]
        assert fb.main(argv) == 0
        assert fb.load_pins(lockfile)["c17"] == fb.load_pins(self.LOCKFILE)["c17"]
        capsys.readouterr()
        assert fb.main(argv) == 0  # second run verifies against the pin
        assert "verified" in capsys.readouterr().out


class TestRetries:
    """Satellite 2: transient failures retry with backoff + socket timeout."""

    def test_retry_recovers_after_transient_failures(self, source, tmp_path, monkeypatch):
        import urllib.error
        import urllib.request

        real_urlopen = urllib.request.urlopen
        calls = {"n": 0}

        def flaky(url, timeout=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise urllib.error.URLError("connection reset")
            return real_urlopen(url, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", flaky)
        monkeypatch.setattr(fb.time, "sleep", lambda s: None)  # no real waits
        dest = tmp_path / "circuits"
        path, updated = fb.fetch(
            "tiny", source["entry"], dest, {}, retries=3, timeout=5.0
        )
        assert updated and path.read_bytes() == source["payload"]
        assert calls["n"] == 3  # two failures, then success

    def test_exhausted_retries_raise_with_attempt_count(self, source, tmp_path, monkeypatch):
        import urllib.error
        import urllib.request

        def dead(url, timeout=None):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr(urllib.request, "urlopen", dead)
        monkeypatch.setattr(fb.time, "sleep", lambda s: None)
        with pytest.raises(fb.FetchError, match="3 attempt"):
            fb.fetch("tiny", source["entry"], tmp_path / "c", {}, retries=2)

    def test_backoff_is_exponential(self, source, tmp_path, monkeypatch):
        import urllib.error
        import urllib.request

        def dead(url, timeout=None):
            raise urllib.error.URLError("down")

        sleeps = []
        monkeypatch.setattr(urllib.request, "urlopen", dead)
        monkeypatch.setattr(fb.time, "sleep", sleeps.append)
        with pytest.raises(fb.FetchError):
            fb.fetch("tiny", source["entry"], tmp_path / "c", {}, retries=3)
        assert sleeps == [fb._BACKOFF_BASE * 2 ** n for n in range(3)]

    def test_timeout_is_passed_to_urlopen(self, source, tmp_path, monkeypatch):
        import urllib.request

        seen = {}
        real_urlopen = urllib.request.urlopen

        def recording(url, timeout=None):
            seen["timeout"] = timeout
            return real_urlopen(url)

        monkeypatch.setattr(urllib.request, "urlopen", recording)
        fb.fetch("tiny", source["entry"], tmp_path / "c", {}, timeout=7.5)
        assert seen["timeout"] == 7.5

    def test_cli_flags_validate(self, capsys):
        with pytest.raises(SystemExit):
            fb.main(["--timeout", "0", "--list"])
        with pytest.raises(SystemExit):
            fb.main(["--retries", "-1", "--list"])

    def test_cli_flags_reach_fetch(self, source, tmp_path, monkeypatch):
        seen = {}
        real_fetch = fb.fetch

        def recording(name, entry, dest, pins, **kwargs):
            seen.update(kwargs)
            return real_fetch(name, entry, dest, pins, **kwargs)

        monkeypatch.setattr(fb, "fetch", recording)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tiny": source["entry"]}))
        code = fb.main([
            "--manifest", str(manifest), "--dest", str(tmp_path / "c"),
            "--lockfile", str(tmp_path / "pins.json"),
            "--timeout", "9", "--retries", "5",
        ])
        assert code == 0
        assert seen["timeout"] == 9.0 and seen["retries"] == 5
