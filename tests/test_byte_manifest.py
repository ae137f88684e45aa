"""Every output that ``byte_manifest.py`` lists keeps its bytes.

After an intended change, regenerate the manifest with
``python3 tests/byte_manifest.py --write`` and name each changed key, with
its reason, in the change's description.
"""

from __future__ import annotations

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
