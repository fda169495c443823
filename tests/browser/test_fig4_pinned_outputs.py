"""Pinned Figure-4 outputs: the page pipeline's results must not move.

The eight Figure-4 pages at nonce seeds 42 and 7, loaded cold under ESCUDO
and under SOP, must serialise, lay out, render and label exactly as pinned
here.  The values were recorded before the tokenizer, tree builder and
renderer were restructured for speed, so any output change those rewrites
(or later ones) make fails this test.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.bench.workloads import all_workloads
from repro.browser.loader import LoaderOptions, load_page
from repro.browser.renderer import LayoutBox, Renderer
from repro.html.serializer import serialize

#: ``"seed/page/model"`` -> (SHA-256 of ``serialize(document)``, SHA-256 of the
#: repr of every box's ``(tag, x, y, width, height)`` in pre-order at the
#: default viewport, ``RenderStats`` fields, ``LabelingStats`` fields with
#: the ring histogram as ordered items).
PINS = {
    "42/S1-static-small/escudo": (
        "c679e60552ae481598b4a9e99daccff6ebef7251e015c4dba63f12a7b5f29ef4",
        "99e241560150f390adc256a82651ab2e36c26f9e04eb42092f59136577982db0",
        (21, 7, 1305, 176.0, 1),
        (17, 5, 0, ((3, 11), (0, 3), (1, 3))),
    ),
    "42/S1-static-small/sop": (
        "c679e60552ae481598b4a9e99daccff6ebef7251e015c4dba63f12a7b5f29ef4",
        "99e241560150f390adc256a82651ab2e36c26f9e04eb42092f59136577982db0",
        (21, 7, 1305, 176.0, 1),
        (17, 0, 0, ((0, 17),)),
    ),
    "42/S2-static-medium/escudo": (
        "3a257286fd530e75e0523e5fd49837e53407a505203ac03849c462d73149cb6e",
        "7be87bbe20dd12e29ea1abeb8ff0c4f2a52d3a365e8f74023fef4eff7a2b048b",
        (117, 49, 5894, 1072.0, 1),
        (71, 10, 0, ((3, 33), (0, 3), (1, 35))),
    ),
    "42/S2-static-medium/sop": (
        "3a257286fd530e75e0523e5fd49837e53407a505203ac03849c462d73149cb6e",
        "7be87bbe20dd12e29ea1abeb8ff0c4f2a52d3a365e8f74023fef4eff7a2b048b",
        (117, 49, 5894, 1072.0, 1),
        (71, 0, 0, ((0, 71),)),
    ),
    "42/S3-static-large/escudo": (
        "09a2d10367a772af8f15ae77b41f7c42e46053e856c21f86d67a9b14d351ff67",
        "e06f1432b7869313bf6cbee2f74a07c20112a9fd2896e91135943d0cc8556de5",
        (273, 119, 18039, 2800.0, 1),
        (157, 19, 0, ((3, 87), (0, 3), (1, 67))),
    ),
    "42/S3-static-large/sop": (
        "09a2d10367a772af8f15ae77b41f7c42e46053e856c21f86d67a9b14d351ff67",
        "e06f1432b7869313bf6cbee2f74a07c20112a9fd2896e91135943d0cc8556de5",
        (273, 119, 18039, 2800.0, 1),
        (157, 0, 0, ((0, 157),)),
    ),
    "42/S4-few-scripts/escudo": (
        "df9a0eb907e3d44634356755d041d96b43c32249370f96049b98f94d089a9fbb",
        "3b632f28de4c01f5513f21178f00461a4129bd4e606558c72d0049800aec4a32",
        (117, 49, 5892, 1072.0, 4),
        (74, 10, 0, ((3, 36), (0, 3), (1, 35))),
    ),
    "42/S4-few-scripts/sop": (
        "df9a0eb907e3d44634356755d041d96b43c32249370f96049b98f94d089a9fbb",
        "3b632f28de4c01f5513f21178f00461a4129bd4e606558c72d0049800aec4a32",
        (117, 49, 5892, 1072.0, 4),
        (74, 0, 0, ((0, 74),)),
    ),
    "42/S5-many-scripts/escudo": (
        "c1f3d29aa9ddbb0cdd832620b018bafdca37ade590bdee642bfc1a010824ae25",
        "1449c99608fcf20474894d101a956e6d7e3409e905a11a30d3ea873cd7422865",
        (153, 65, 9679, 1520.0, 9),
        (99, 14, 0, ((3, 61), (0, 3), (1, 35))),
    ),
    "42/S5-many-scripts/sop": (
        "c1f3d29aa9ddbb0cdd832620b018bafdca37ade590bdee642bfc1a010824ae25",
        "1449c99608fcf20474894d101a956e6d7e3409e905a11a30d3ea873cd7422865",
        (153, 65, 9679, 1520.0, 9),
        (99, 0, 0, ((0, 99),)),
    ),
    "42/S6-nested-scopes/escudo": (
        "74e036de9f46dc05f67e9f872df0c943036a9e5841421bbe1dc13fb353aad562",
        "b5a3e150d9f1045eb45b35de054e728ccadd9c34654de09e69a695af33fca54b",
        (143, 57, 7791, 1296.0, 4),
        (92, 20, 0, ((3, 54), (0, 3), (1, 35))),
    ),
    "42/S6-nested-scopes/sop": (
        "74e036de9f46dc05f67e9f872df0c943036a9e5841421bbe1dc13fb353aad562",
        "b5a3e150d9f1045eb45b35de054e728ccadd9c34654de09e69a695af33fca54b",
        (143, 57, 7791, 1296.0, 4),
        (92, 0, 0, ((0, 92),)),
    ),
    "42/S7-deeply-nested/escudo": (
        "a8efab1c23c15f0a709d9b66cceee93542e26c16a7d9edc59d10c2f7d47b3039",
        "66939fa6fb6215d2c92a5572917eb4933834153b3cec71d318e30adc2afc60b5",
        (207, 81, 7983, 1680.0, 6),
        (134, 29, 0, ((3, 64), (0, 3), (1, 67))),
    ),
    "42/S7-deeply-nested/sop": (
        "a8efab1c23c15f0a709d9b66cceee93542e26c16a7d9edc59d10c2f7d47b3039",
        "66939fa6fb6215d2c92a5572917eb4933834153b3cec71d318e30adc2afc60b5",
        (207, 81, 7983, 1680.0, 6),
        (134, 0, 0, ((0, 134),)),
    ),
    "42/S8-heavy/escudo": (
        "f74406c7f846f90b7492fffa7c5f31ef0d33bda91adac40a21e1d2de3273ea2b",
        "ddb583bc07348d06d7638caade252744a66d6085477df31fde7335865815dfe3",
        (415, 173, 25798, 4048.0, 11),
        (255, 46, 0, ((3, 153), (0, 3), (1, 99))),
    ),
    "42/S8-heavy/sop": (
        "f74406c7f846f90b7492fffa7c5f31ef0d33bda91adac40a21e1d2de3273ea2b",
        "ddb583bc07348d06d7638caade252744a66d6085477df31fde7335865815dfe3",
        (415, 173, 25798, 4048.0, 11),
        (255, 0, 0, ((0, 255),)),
    ),
    "7/S1-static-small/escudo": (
        "f44e8021abefeb5dc50a2292cfe6428ac409f4d7060f26877368fa8f0218026f",
        "99e241560150f390adc256a82651ab2e36c26f9e04eb42092f59136577982db0",
        (21, 7, 1305, 176.0, 1),
        (17, 5, 0, ((3, 11), (0, 3), (1, 3))),
    ),
    "7/S1-static-small/sop": (
        "f44e8021abefeb5dc50a2292cfe6428ac409f4d7060f26877368fa8f0218026f",
        "99e241560150f390adc256a82651ab2e36c26f9e04eb42092f59136577982db0",
        (21, 7, 1305, 176.0, 1),
        (17, 0, 0, ((0, 17),)),
    ),
    "7/S2-static-medium/escudo": (
        "e75585bd45d4601dba7e033fba0f06eab0b2b783e80f6e125e65438d8f5abea9",
        "7be87bbe20dd12e29ea1abeb8ff0c4f2a52d3a365e8f74023fef4eff7a2b048b",
        (117, 49, 5894, 1072.0, 1),
        (71, 10, 0, ((3, 33), (0, 3), (1, 35))),
    ),
    "7/S2-static-medium/sop": (
        "e75585bd45d4601dba7e033fba0f06eab0b2b783e80f6e125e65438d8f5abea9",
        "7be87bbe20dd12e29ea1abeb8ff0c4f2a52d3a365e8f74023fef4eff7a2b048b",
        (117, 49, 5894, 1072.0, 1),
        (71, 0, 0, ((0, 71),)),
    ),
    "7/S3-static-large/escudo": (
        "f861f2b45ea778a44955cdfdfc9ac78f1036aaefeeb69572a2ebc8d1ae2cfa02",
        "e06f1432b7869313bf6cbee2f74a07c20112a9fd2896e91135943d0cc8556de5",
        (273, 119, 18039, 2800.0, 1),
        (157, 19, 0, ((3, 87), (0, 3), (1, 67))),
    ),
    "7/S3-static-large/sop": (
        "f861f2b45ea778a44955cdfdfc9ac78f1036aaefeeb69572a2ebc8d1ae2cfa02",
        "e06f1432b7869313bf6cbee2f74a07c20112a9fd2896e91135943d0cc8556de5",
        (273, 119, 18039, 2800.0, 1),
        (157, 0, 0, ((0, 157),)),
    ),
    "7/S4-few-scripts/escudo": (
        "9cf17aea3a868b1be80566c7b751fe2c935afa7276cffbdfccdd92f0ec57283c",
        "3b632f28de4c01f5513f21178f00461a4129bd4e606558c72d0049800aec4a32",
        (117, 49, 5892, 1072.0, 4),
        (74, 10, 0, ((3, 36), (0, 3), (1, 35))),
    ),
    "7/S4-few-scripts/sop": (
        "9cf17aea3a868b1be80566c7b751fe2c935afa7276cffbdfccdd92f0ec57283c",
        "3b632f28de4c01f5513f21178f00461a4129bd4e606558c72d0049800aec4a32",
        (117, 49, 5892, 1072.0, 4),
        (74, 0, 0, ((0, 74),)),
    ),
    "7/S5-many-scripts/escudo": (
        "3099874f57658719b042f7b7cc193118d1123fc9c7871a2de284b9994fa4c02a",
        "1449c99608fcf20474894d101a956e6d7e3409e905a11a30d3ea873cd7422865",
        (153, 65, 9679, 1520.0, 9),
        (99, 14, 0, ((3, 61), (0, 3), (1, 35))),
    ),
    "7/S5-many-scripts/sop": (
        "3099874f57658719b042f7b7cc193118d1123fc9c7871a2de284b9994fa4c02a",
        "1449c99608fcf20474894d101a956e6d7e3409e905a11a30d3ea873cd7422865",
        (153, 65, 9679, 1520.0, 9),
        (99, 0, 0, ((0, 99),)),
    ),
    "7/S6-nested-scopes/escudo": (
        "845b9ee7607e939ba84d0fe434d5f4080e55c8ad2fc0d12613b02f151328e909",
        "b5a3e150d9f1045eb45b35de054e728ccadd9c34654de09e69a695af33fca54b",
        (143, 57, 7791, 1296.0, 4),
        (92, 20, 0, ((3, 54), (0, 3), (1, 35))),
    ),
    "7/S6-nested-scopes/sop": (
        "845b9ee7607e939ba84d0fe434d5f4080e55c8ad2fc0d12613b02f151328e909",
        "b5a3e150d9f1045eb45b35de054e728ccadd9c34654de09e69a695af33fca54b",
        (143, 57, 7791, 1296.0, 4),
        (92, 0, 0, ((0, 92),)),
    ),
    "7/S7-deeply-nested/escudo": (
        "b6ed190271b69dbe9c24035b38a339e1d2bbd95334103fdc1da3bdfd0259ee37",
        "66939fa6fb6215d2c92a5572917eb4933834153b3cec71d318e30adc2afc60b5",
        (207, 81, 7983, 1680.0, 6),
        (134, 29, 0, ((3, 64), (0, 3), (1, 67))),
    ),
    "7/S7-deeply-nested/sop": (
        "b6ed190271b69dbe9c24035b38a339e1d2bbd95334103fdc1da3bdfd0259ee37",
        "66939fa6fb6215d2c92a5572917eb4933834153b3cec71d318e30adc2afc60b5",
        (207, 81, 7983, 1680.0, 6),
        (134, 0, 0, ((0, 134),)),
    ),
    "7/S8-heavy/escudo": (
        "59dae9068d19b00ae8f8acfb9306c7530174aac3d3bb1626ea7f0689bd83b69e",
        "ddb583bc07348d06d7638caade252744a66d6085477df31fde7335865815dfe3",
        (415, 173, 25798, 4048.0, 11),
        (255, 46, 0, ((3, 153), (0, 3), (1, 99))),
    ),
    "7/S8-heavy/sop": (
        "59dae9068d19b00ae8f8acfb9306c7530174aac3d3bb1626ea7f0689bd83b69e",
        "ddb583bc07348d06d7638caade252744a66d6085477df31fde7335865815dfe3",
        (415, 173, 25798, 4048.0, 11),
        (255, 0, 0, ((0, 255),)),
    ),
}


def _box_geometry(root: LayoutBox) -> list[tuple]:
    out = []
    stack = [root]
    while stack:
        box = stack.pop()
        out.append((box.element_tag, box.x, box.y, box.width, box.height))
        stack.extend(reversed(box.children))
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _loads() -> dict[str, tuple]:
    """``"seed/page/model"`` -> (page, header configuration, model)."""
    loads = {}
    for seed in (42, 7):
        for page in all_workloads(nonce_seed=seed):
            loads[f"{seed}/{page.name}/escudo"] = (page, page.configuration, "escudo")
            loads[f"{seed}/{page.name}/sop"] = (page, None, "sop")
    return loads


LOADS = _loads()


def test_every_load_is_pinned():
    assert sorted(LOADS) == sorted(PINS)


@pytest.mark.parametrize("key", sorted(PINS))
def test_figure4_page_outputs_match_the_pins(key):
    page, configuration, model = LOADS[key]
    loaded = load_page(page.escudo_html, page.url, configuration=configuration,
                       options=LoaderOptions(model=model))
    root, _ = Renderer().render(loaded.document)
    labeling = loaded.labeling
    observed = (
        _sha256(serialize(loaded.document)),
        _sha256(repr(_box_geometry(root))),
        dataclasses.astuple(loaded.rendering),
        (labeling.labelled_elements, labeling.ac_tags, labeling.scoping_clamps,
         tuple(labeling.ring_histogram.items())),
    )
    assert observed == PINS[key]
