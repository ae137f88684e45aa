"""Every output that ``byte_manifest.py`` lists keeps its bytes.

After an intended change, regenerate the manifest with
``python3 tests/byte_manifest.py --write``, which names each removed and
changed key, and give each its reason in the change's description.
"""

from __future__ import annotations

import json

import pytest

import byte_manifest


@pytest.fixture(scope="module")
def manifest():
    return byte_manifest.load_manifest()


@pytest.mark.parametrize("group", byte_manifest.GROUPS)
def test_outputs_keep_their_bytes(group, manifest, tmp_path):
    texts = byte_manifest.outputs(group, tmp_path / group)
    if texts is None:
        pytest.skip(f"this git cannot build the {group} scenario")
    expected = {key: value for key, value in manifest.items() if key.split("/")[0] == group}
    got = byte_manifest.digests(texts)
    assert expected, f"no outputs of {group} in the manifest"
    differing = sorted(key for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))
    if differing:
        directory = tmp_path / "outputs"
        byte_manifest.write_outputs(texts, directory)
        pytest.fail(
            f"{len(differing)} outputs differ from {byte_manifest.MANIFEST.name}: "
            f"{', '.join(differing)}; this run's outputs are under {directory}"
        )


def test_write_counts_and_names_the_keys_it_changes(manifest, tmp_path, monkeypatch, capsys):
    # A copy of the bad settings' keys with one edited, one dropped and one
    # that no output has any more.
    group = {key: value for key, value in manifest.items() if key.startswith("bad_settings/")}
    edited, dropped = "bad_settings/config-flag/scan/stdout", "bad_settings/config-flag/scan/exit"
    copy = {**group, edited: [0, "0" * 64], "bad_settings/gone": [0, "0" * 64]}
    del copy[dropped]
    monkeypatch.setattr(byte_manifest, "MANIFEST", tmp_path / "manifest.json")
    monkeypatch.setattr(byte_manifest, "GROUPS", ["bad_settings"])
    byte_manifest.MANIFEST.write_text(json.dumps(copy), encoding="utf-8")
    assert byte_manifest.main(["--write"]) == 0
    assert capsys.readouterr().out == (
        f"1 added, 1 removed, 1 changed\nremoved: bad_settings/gone\nchanged: {edited}\n"
    )
    assert byte_manifest.load_manifest() == group
