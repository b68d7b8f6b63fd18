"""Canonical-report digests of the scenario corpus, byte for byte.

Each scene is the desk scenario (``inlier_rate=0.85, visible_fraction=0.8,
coord_noise_sigma=1e-4``) at one seed and grid, saved to a scene file, read
back and solved with ``desk_scale_config()``.  A change that claims to keep
behaviour must pass these unchanged; a declared behaviour change re-records
them in a commit of its own, old -> new.
"""

import hashlib

import pytest

from crfpose.pipeline import canonical_report, desk_scale_config, solve_scene
from crfpose.synth import default_scenario, generate_bundle, load_scene, save_scene

#: (grid_width, grid_height, scenario seed) -> canonical-report sha256
CORPUS = {
    (32, 24, 853263472000): "c3a275ebb7ac2ed2c7305bb315a296986108a7af1dbe79bf710a3a9d4ad851c6",
    (32, 24, 853263472001): "74b48208dfb83d459bd2ee7e4edc4ded6945960620503f6ffeaa06d8e1bbafa5",
    (32, 24, 7000): "24867fe5b3695c6de4dd738092839a3b9424bb1c3d96d38365dfb85b7086187d",
    (32, 24, 0): "ef77d4479c09ec3e4948775d2f57ace0f8fccd40c01e1506b3df176a90ec9f56",
    (32, 24, 1): "034dd18a54edfa59027171a0598d0930652b748c7b9ee920d623444af3418703",
    (32, 24, 2): "408ce52659e06403e68c99e36972371acdec3f9c5b0bfd766cd2b9ff1073b007",
    (32, 24, 3): "3179ee3e9ec50f4421ba2a40fafe34396e6907a90e2f09cae0f502edaaeef8c3",
    (32, 24, 4): "4defb208daaba87a05159aa3d69b1d72c33082f1bf62338ff98e379e91d0aacd",
    (32, 24, 5): "f4c46f31a396a60acfb43ad1e7be030b126eae0d482d60fb8dcda289f667c5e7",
    (32, 24, 1000): "9541b6a8a76d0a374dd0161318b9aa3f981c20753aa94b9dd0f9838bf7875c12",
    (32, 24, 1001): "213f28601dc0b14d559059a0d4e963317b71709014677c1a0b7b95a6c0dd2da4",
    (32, 24, 2000): "404ad6e2684a69621b46abea569ccef44e8af82bbdaf71dc38000f3518697a0e",
    (32, 24, 44000): "8a7f297d3c7dd080c1cd5d7d6a25fe26b72ae1b94d4feace9270a2274690701c",
    (32, 24, 12): "bef38d84fed2d2c3ac1174d2b7a7264a9484e20971101eabfe26c8d5d4fd63a8",
    (64, 48, 7000): "cef4fa71f96ed6d5e4a535c37b63903076a711a7986590f55034606b2fb8dcab",
    (64, 48, 0): "6f055c411a5fb787f2b27f27fec065f379d63bb985707d4377a1ebcb139d8667",
    (64, 48, 1): "2adb9b2c8fd59bb6e50237c979f551bf11a5607e9746644a79df18a30de31b6e",
    (64, 48, 1000): "2c71c5f17b8d514845aca3e9beae41415ae20e4a48e3ae53d2726708207a6b88",
    (64, 48, 2000): "26aae7341494b53e4b2d919a4796ee4dd8287dffdf50eec2a050a93d7ffb5984",
    (64, 48, 3000): "ff3240b71352d540cc65be95ec02e960d79584b875dbded0beb0159241bf5124",
}


@pytest.mark.parametrize("width, height, seed", list(CORPUS),
                         ids=[f"{w}x{h}-seed{s}" for w, h, s in CORPUS])
def test_scenario_report_digest_is_pinned(tmp_path, width, height, seed):
    bundle = generate_bundle(default_scenario(
        seed=seed, grid_width=width, grid_height=height, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4))
    path = tmp_path / "scene.json"
    save_scene(bundle, path)
    text = canonical_report(solve_scene(load_scene(path), desk_scale_config()))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS[width, height, seed]
