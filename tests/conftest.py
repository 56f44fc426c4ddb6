import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
FIXTURES = REPO / "fixtures"


@pytest.fixture(autouse=True)
def _empty_stream_cache():
    """Every test starts with an empty keystream cache, so no outcome depends
    on the tests that ran before it."""
    from scylla import crypto
    crypto._streams.clear()


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def manifest() -> dict:
    with open(CORPUS / "manifest.json") as fh:
        return json.load(fh)["programs"]


@pytest.fixture(scope="session")
def corpus_sources(manifest) -> dict[str, str]:
    return {name: (CORPUS / f"{name}.s").read_text() for name in manifest}


@pytest.fixture(scope="session")
def corpus_images(corpus_sources):
    from scylla.asm import parse_assembly
    from scylla.image import layout_image
    return {name: layout_image(parse_assembly(src))
            for name, src in corpus_sources.items()}


@pytest.fixture(scope="session")
def corpus_encrypted(corpus_images):
    from scylla.crypto import encrypt_pipeline
    return {name: encrypt_pipeline(image, 42)
            for name, image in corpus_images.items()}


@pytest.fixture(scope="session")
def large_image():
    """A laid-out chain of 1,200 short blocks, each ending in a branch, a
    call or a jump, plus one callee: 1,203 blocks and 2,000 edges of five kinds."""
    import random

    from scylla.asm import parse_assembly
    from scylla.image import layout_image
    rng = random.Random(30)
    lines = []
    for i in range(1200):
        lines.append(f"b{i}:")
        lines += [f"addi x{rng.randrange(5, 32)}, x5, {rng.randrange(-2048, 2048)}"
                  for _ in range(rng.randrange(4))]
        lines.append(("beq x5, x6, b{0}" if i % 3 == 0 else
                      "jal x1, callee" if i % 3 == 1 else "jal x0, b{0}").format(i + 2))
    lines += ["b1200:", "ecall", "b1201:", "ecall", "callee:", "addi x5, x5, 1", "jalr x0, x1, 0"]
    return layout_image(parse_assembly("\n".join(lines)), text_base=0x400)
