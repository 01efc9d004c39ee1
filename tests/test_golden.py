"""Golden output trees: the sha256 of every file the CLI writes.

The digests were recorded from the commands in :data:`COMMANDS` on both
sample models and pin the artifact tree byte for byte, so a refactor that
changes any result, format or file name fails here.  Floating-point
results depend on the numpy build, so the test runs only under the numpy
version the digests were recorded with.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from stochage import ensemble
from stochage.cli import main

from conftest import PINNED_NUMPY

ROOT = Path(__file__).resolve().parent.parent

# (output directory, argv) pairs; with a chunk budget of 7 sample1d paths,
# the ensembles of 8 paths span two chunks, the second one ragged
COMMANDS = (
    ("run", ("ensemble", "--solver", "both", "--paths", "2", "--stride", "1",
             "--save-bundle")),
    ("compare", ("compare",)),
    ("check", ("check",)),
    ("convergence", ("convergence", "--levels", "3")),
    ("ensemble", ("ensemble", "--solver", "both", "--paths", "8")),
)

DIGESTS = {
    "sample1d/check/checks.csv": "fa1b7b84fb3cc87337d907e708572a2dd5d40f9ac2ec36bfa95c7ba40cc71ff1",
    "sample1d/compare/compare.csv": "824f06dce82eb1fc541355df1c4b77a1819acd4d792b92c553475854eada3089",
    "sample1d/compare/final_direct.bin": "a8a0e5b7e96c4db25e92b876f3c181a349f56072476e70b2ac2a0cf136d2abc6",
    "sample1d/compare/final_rescaled.bin": "9caeb47ae174f56829cb419c2fcd6807805947f6b844cefbadf4f5a5698e0af5",
    "sample1d/compare/series_direct.csv": "80b08ff36a20dab7b8df7f514cab015904fb802ff6ea3bc46c3f830adbfcad42",
    "sample1d/compare/series_rescaled.csv": "4cbc5c45301fa21e94a99b2ad0ec669486e6b561c9ad9c87f74d711b4af6f409",
    "sample1d/convergence/convergence.csv": "fadde631b2aee26216990b8fb8198b0eda3f129bea01f5192a9f0ff7116334f2",
    "sample1d/convergence/orders.csv": "15eae719cb048204b09c6398ab9bc98d32da95064b1db3c159b6021a6c8c6e7c",
    "sample1d/ensemble/paths.csv": "3f6f21c0539faf165dda3c8277f3501f7dde89ea906dacd9801bf49f223256bf",
    "sample1d/ensemble/stats_mean_direct.bin": "0729a955d1933489bc4d804a93f3c7c907dc9ce5118943c4750be9da535212ed",
    "sample1d/ensemble/stats_mean_rescaled.bin": "971c91515326a8f18bb21c1b0f7cc40a040ed86d245e7d534ff9d94d41beba34",
    "sample1d/ensemble/stats_var_direct.bin": "6d88f40fbe145ac8df7c7448210fc7bda94142488a7cfa02e652928279cbb97d",
    "sample1d/ensemble/stats_var_rescaled.bin": "b8a465c63241b08deb9f1e015c72f3e089634f4cb8c9e37620df59aaa1be2139",
    "sample1d/ensemble/totals_direct.csv": "65b4194dac03f580ea663c3389f6b569a5b891d8f4dc855460f899f981a931e0",
    "sample1d/ensemble/totals_rescaled.csv": "3edf2e53593418a8b0487bc1149841d9a369136978aef797fad777a8b60516c9",
    "sample1d/run/bundle_path00000.bin": "69b635fb16e008784f1795c0d805e214ea5790fcba1333202ccfe30f601928e8",
    "sample1d/run/path_00000_direct.bin": "a8a0e5b7e96c4db25e92b876f3c181a349f56072476e70b2ac2a0cf136d2abc6",
    "sample1d/run/path_00000_direct.csv": "80b08ff36a20dab7b8df7f514cab015904fb802ff6ea3bc46c3f830adbfcad42",
    "sample1d/run/path_00000_rescaled.bin": "9caeb47ae174f56829cb419c2fcd6807805947f6b844cefbadf4f5a5698e0af5",
    "sample1d/run/path_00000_rescaled.csv": "4cbc5c45301fa21e94a99b2ad0ec669486e6b561c9ad9c87f74d711b4af6f409",
    "sample1d/run/path_00001_direct.bin": "7395e9f35c250678096adc272468a0d952289cb10882dfecbff51aab7f951921",
    "sample1d/run/path_00001_direct.csv": "6da626cf123f43a91e33f9e8ee43051534248342717f030aaeb5746136a78cc4",
    "sample1d/run/path_00001_rescaled.bin": "ee841ea920ac30633ab00ca54336fd9425e81fd4a3c4db96fab4c4d63542a44d",
    "sample1d/run/path_00001_rescaled.csv": "8fbbc35df8c404d76c7978b38b82704c97852f1f77d1d8302e7ae6b0fb0cf408",
    "sample1d/run/paths.csv": "84b74f96d5b10aa9f27a4b012ef3bee1e33dc7895fba4ab6d7b21dac1687874b",
    "sample1d/run/stats_mean_direct.bin": "32d43db68647f6d6ea71dc9580aa1ac4787511f580e45f76b952df62c127c9a9",
    "sample1d/run/stats_mean_rescaled.bin": "b92008f406a13dd566690d7c48f8ceaad9154d748b53a1fb5d6ab418bb468a2a",
    "sample1d/run/stats_var_direct.bin": "6bd78cc29c51930a833768f10ad9fefa6526d367b13e85eeb068ffe2da1256bd",
    "sample1d/run/stats_var_rescaled.bin": "515685ba5151bcb22d29daa12949ad36bc1624eb2caec8908c20cfd5c7926575",
    "sample1d/run/totals_direct.csv": "248baa103ab19e12d8d50e0c0e830a609dc8b3f6d57eed92d8bf00798f10ea5a",
    "sample1d/run/totals_rescaled.csv": "61d2d759080d3152bb88cd06abc116a5cc978a1a6420d9aea343b3d2fa32d0b0",
    "sample2d/check/checks.csv": "7292d1ffb12f6067d453b465f071e403cc3cf29ae87da7e7c510086a10b0c76c",
    "sample2d/compare/compare.csv": "737f686bb4579b21bcd76aae6775372ee87eb60f353eba240424ff59340dc569",
    "sample2d/compare/final_direct.bin": "2abd4f848b26091a2bc7d66045e9d5848f69bffdf7763aeb1927ccfed10d6e0a",
    "sample2d/compare/final_rescaled.bin": "509895a0d0ecf5fe89f75b206962bd3f641c86076e6a39730b249e67a8bb4fe2",
    "sample2d/compare/series_direct.csv": "8b95509201707832a1a6a18dfedffa00e4d4ea7ea1733e771b98e7183b8b6c7a",
    "sample2d/compare/series_rescaled.csv": "18dabae23fccdc2b9fe1a09a239d8d4173e121861f3fb3757a5b20bc17e427d5",
    "sample2d/convergence/convergence.csv": "015d4afb77556c1c192ffd01a71d8c0f3f0155fdc691bb7a1e605cdc8add6598",
    "sample2d/convergence/orders.csv": "c8b6477df62e515a9ad3e4be6fc72f29d36eb39737cfe3fed398d29948ed0456",
    "sample2d/ensemble/paths.csv": "083da226ec52e8eec66791636234398310884fc96726e74cf2a3a6a36cf364f8",
    "sample2d/ensemble/stats_mean_direct.bin": "1718b71a81d463deef396d99ff2c1c29ac6da87ed8541693961cf896ef1de539",
    "sample2d/ensemble/stats_mean_rescaled.bin": "5ffab417220f03d83e09fdce76ce515e5bcc75fbad195e81ad7e97d73eeb8751",
    "sample2d/ensemble/stats_var_direct.bin": "01e077e43dc2e69132846a36c0f40d56b6682536a23eabcdd448067266d72dfc",
    "sample2d/ensemble/stats_var_rescaled.bin": "d8ef9bf54b95f77061c819af0287b401e0849beda79c979f34fc7cff84f25c2e",
    "sample2d/ensemble/totals_direct.csv": "d27629067fde145dacd39b8e771a066b2f66f90b6fad4e12abe33f99919e6916",
    "sample2d/ensemble/totals_rescaled.csv": "28e4dc6d369a80f0657d0159d90e225e17f13ec2dd3486ffade97f8fddf7b20d",
    "sample2d/run/bundle_path00000.bin": "4fc132b490294307b37bf3781503defa126eab4d54fdb265eaa603bd8f28026e",
    "sample2d/run/path_00000_direct.bin": "2abd4f848b26091a2bc7d66045e9d5848f69bffdf7763aeb1927ccfed10d6e0a",
    "sample2d/run/path_00000_direct.csv": "8b95509201707832a1a6a18dfedffa00e4d4ea7ea1733e771b98e7183b8b6c7a",
    "sample2d/run/path_00000_rescaled.bin": "509895a0d0ecf5fe89f75b206962bd3f641c86076e6a39730b249e67a8bb4fe2",
    "sample2d/run/path_00000_rescaled.csv": "18dabae23fccdc2b9fe1a09a239d8d4173e121861f3fb3757a5b20bc17e427d5",
    "sample2d/run/path_00001_direct.bin": "7f78e5c409301b2582cf00fb711e5f1435ef25029440cdbe5b0a917d50ba8532",
    "sample2d/run/path_00001_direct.csv": "d88ad4407a742a6986caef1410609cadba38aec1760c5d0d3d8b71fc79225151",
    "sample2d/run/path_00001_rescaled.bin": "4c8adf1ee1b09925d85d810d1ae89f7911e752feedeb02a6d6ac9e00de5fa5c9",
    "sample2d/run/path_00001_rescaled.csv": "89f659c171e1ca36fc26b6afb2a08570733613872e149d25426f15731f52dc5d",
    "sample2d/run/paths.csv": "a650746f5173dd23b6ee04f02d1583e5ceacb177284acb97eaf449c7231849dc",
    "sample2d/run/stats_mean_direct.bin": "eceac7a6dd8783f8f47f557356c3a817f191e4afa6a578739890a18181a31bc0",
    "sample2d/run/stats_mean_rescaled.bin": "b2622df4c5cfa2b2b8fcc1fd395bf8a9e72f4396e0eba06fcbb92da906dac61a",
    "sample2d/run/stats_var_direct.bin": "cba1ff5ab60f01b7fc0eef6b5e691b97adde813f8b2e767078ba95d02e66f73d",
    "sample2d/run/stats_var_rescaled.bin": "f6f32eeeb801dbd56747211d81722fa013f1c7c4be9ee21dab8db62cee8dad3a",
    "sample2d/run/totals_direct.csv": "35eff670116bc30b6227ba9f55f8c2d6639c6cab5af17d423608112b0307baa5",
    "sample2d/run/totals_rescaled.csv": "913459d60036f0b4980152fc15fa02e5e2ae8f09b3f92272266557c7f46d58de",
}


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"digests were recorded with numpy {PINNED_NUMPY}")
def test_output_trees_match_golden_digests(tmp_path, monkeypatch):
    grid = ensemble._cached_model(str(ROOT / "models" / "sample1d.ini"), 1)[0].grid
    monkeypatch.setattr(ensemble, "CHUNK_BYTES", 7 * 8 * int(np.prod(grid.field_shape)))
    chunks = ensemble.path_chunks(8, grid)
    assert len(chunks) == 2 and len(chunks[1]) < len(chunks[0])
    for model in ("sample1d", "sample2d"):
        for label, command in COMMANDS:
            out = tmp_path / model / label
            argv = list(command) + ["--model", str(ROOT / "models" / f"{model}.ini"),
                                    "--out", str(out)]
            assert main(argv) == 0, argv
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert got.keys() == DIGESTS.keys()
    changed = sorted(name for name in got if got[name] != DIGESTS[name])
    assert not changed, changed
