"""The bundled trace files, pinned byte for byte and as parsed columns.

`scripts/generate_traces.py` must rebuild every bundled library exactly,
and parsing each bundled file must give the same id, frame rate, content
class, sizes, frame types and indices as when these digests were recorded.
A change to the trace model, its parser, its serializer or the synthesizers
that moves one byte or one parsed value fails here.
"""

import hashlib

import numpy as np
import pytest

from vmac.trace_model import parse_trace_file

from .conftest import TRACES_DIR, generate_traces

LIBRARIES = ("bursty", "content", "samples")

# bundled file -> sha256 of its parsed (id, fps, content class, sizes,
# frame types, indices)
PARSED = {
    "bursty/bursty-0.txt": "e6d1a3de103bddd75ced54f8f5237868479058a04fb89aac52baaac849c4b7a8",
    "bursty/bursty-1.txt": "67fe63d8ab9941bdd5d87861cd4f72c1c50ae89701d6b58fdc93af9e0108eca6",
    "bursty/bursty-2.txt": "5ec3982725e92a001f5a4e6f004bf809e8ffc6393989025b56ba1f5f2b9196c3",
    "bursty/bursty-3.txt": "eb987223e19f22909bf259a6692e22d698254379454ac620d1eefb4a243900ba",
    "bursty/bursty-4.txt": "571f524bddb08dbe39178afc340ca71695592f318d88f75b71a31d6757d0b23b",
    "bursty/bursty-5.txt": "cb421083bddd661c3acd24adbec9ac9ffd994712d782291af8732667f7b649ac",
    "bursty/bursty-6.txt": "683ebd504e607d6805974130778cd7ac913140e5d91e7e7e85a2316a9516b523",
    "bursty/smooth-7.txt": "92eb2125671d12b66e532e33db741e2ac399beab32791d499638e2483adfb95e",
    "bursty/smooth-8.txt": "85d8ab5c843e0ec06ca953420d81a5ab795fb4d3d9163b2ebfd56a1b024865ed",
    "bursty/smooth-9.txt": "93b9c4ca7e31af8a8747f3bb83ca2b0ff853f263f41e4a2a733e604c373efb57",
    "content/news-0.txt": "05bf2c33ef3689c503ed31f1acdde654e988daa3166706cabd8677cecb543b34",
    "content/news-1.txt": "1cec2169e9552e69b9f8e5ef93a1f232a6f9c99b9ed29f9f500497cfd2ec812f",
    "content/news-2.txt": "fe24fed56c422b1fc20a38d7aec523b1b123044b2046f5955068b7c1ad42ad36",
    "content/news-3.txt": "96bfedf4a5c710995342bce12ec0b642e0f17a98e5101011dac6f4f6c5e6b562",
    "content/news-4.txt": "08d847e18c39a73e3bc5176a267dd6eaa9c4b4f72d4b7635f5748aa0a83652a6",
    "content/sports-0.txt": "8527e711e3a433a6233e4560ae22c1e04ded844d112fb61909cf7f4790c91c00",
    "content/sports-1.txt": "652e34b526aefb021cbf8822df4a17077620378b9b9e75641306d67d81b35095",
    "content/sports-2.txt": "7ba5ebe20a6d869b05fc62a3b945e52553f048cf8ca6a874247486ad48aceb58",
    "content/sports-3.txt": "516fc9321db8334a2861c7c00c8cb24ab50448363560dc143022979248e2588f",
    "content/sports-4.txt": "55c5c82695817e3346eb7f5106b4da5418f3a1ece123666ab5dcf671724bbcce",
    "samples/sample-0.txt": "6bbad7198b698e63425fa40c8d776e549935b92308e2f07adbb3b2e1237e80aa",
    "samples/sample-1.txt": "72d83872f8211426e6def40c9df2b46fb0d2ca80a6ae092199f122c6205868e4",
    "samples/sample-2.txt": "5234e3c3e4bd47adb8757c94671b092fdb122add7cf719dba1c5ff087e4430c4",
    "samples/sample-3.txt": "14c9c81eeb257ae60453e19f636e03062061b6f2185a4ba75a1be6869a72ce65",
    "samples/sample-4.txt": "99183e1d9ec3e758333a19758e30c65e13aa2365ba2a2a01885e0b8b83725c7a",
}


def parsed_digest(path) -> str:
    trace = parse_trace_file(path)
    h = hashlib.sha256()
    h.update(f"{trace.id}\0{trace.fps!r}\0{trace.content_class.value}\0".encode())
    h.update(np.asarray(trace.sizes, dtype="<i8").tobytes())
    h.update(trace.frame_types.encode())
    h.update(np.asarray(trace.indices, dtype="<i8").tobytes())
    return h.hexdigest()


def test_generator_rebuilds_bundled_traces(tmp_path):
    generate_traces().main(tmp_path)
    for library in LIBRARIES:
        bundled = sorted(p.name for p in (TRACES_DIR / library).glob("*.txt"))
        rebuilt = sorted(p.name for p in (tmp_path / library).glob("*.txt"))
        assert rebuilt == bundled
        for name in bundled:
            assert (tmp_path / library / name).read_bytes() == (
                TRACES_DIR / library / name
            ).read_bytes(), f"{library}/{name}"


def test_every_bundled_file_is_pinned():
    bundled = sorted(
        f"{library}/{p.name}"
        for library in LIBRARIES
        for p in (TRACES_DIR / library).glob("*.txt")
    )
    assert bundled == sorted(PARSED)


@pytest.mark.parametrize("name", sorted(PARSED))
def test_parsed_columns_pinned(name):
    assert parsed_digest(TRACES_DIR / name) == PARSED[name]
