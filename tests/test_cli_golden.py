"""Byte-exact CLI output: one sha256 of (argv, exit code, stdout, stderr) per call.

The digests pin every subcommand and format, so a change to how output is
written cannot alter a single byte unnoticed. When output changes on
purpose, regenerate the table with ``python tests/test_cli_golden.py`` and
review the diff of the invocations whose digest moved.
"""

import contextlib
import hashlib
import io
import json

import pytest

from relubound.cli import main


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    payload = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


INVOCATIONS = [
    "bound --n0 2 --widths 3",
    "bound --n0 2 --widths 3 --format json",
    "bound --n0 4 --widths 4,4",
    "bound --n0 4 --widths 4,4 --format json",
    "bound --n0 3 --widths 4:x6",
    "bound --n0 1 --widths 1",
    "bound --n0 2 --widths 3 --gamma naive",
    "bound --n0 2 --widths 3 --gamma zaslavsky",
    "bound --n0 2 --widths 3 --gamma binomial",
    "bound --n0 3 --widths 5,2,4 --gamma binomial --format json",
    "bound --n0 3 --widths 5,2,4 --gamma zaslavsky --format json",
    "bound --n0 3 --widths 5,2,4 --gamma naive --format json",
    "table --n 4 --l-max 3",
    "table --n 4 --l-max 3 --format csv",
    "table --n 4 --l-max 3 --format json",
    "table --n 12 --n0-list 1,6 --l-max 2",
    "table --n 3 --n0-list 1,2 --l-max 2 --format json",
    "matrix --gamma binomial --n 4",
    "matrix --gamma binomial --n 4 --format json",
    "matrix --gamma zaslavsky --n 1",
    "matrix --gamma zaslavsky --n 3 --format json",
    "matrix --gamma naive --n 5",
    "matrix --gamma naive --n 5 --format json",
    "matrix --gamma binomial --n 11",
    "decompose --n 4",
    "decompose --n 4 --format json",
    "decompose --n 5",
    "decompose --n 5 --format json",
    "asymptotic --n 4 --n0 2",
    "asymptotic --n 4 --n0 2 --format csv",
    "asymptotic --n 4 --n0 2 --format json",
    "asymptotic --n 5 --n0 5",
    "asymptotic --n 7 --n0 3 --format csv",
    "asymptotic --n 7 --n0 3 --format json",
    "count --triangle down",
    "count --triangle down --format json",
    "count --triangle up --box-radius 10",
    "count --triangle up --box-radius 10 --format json",
    "count --triangle down --box-radius 10 --samples 50",
    "count --triangle up --samples 200 --seed 3 --format json",
    "count --random --n0 2 --widths 3,2 --seed 1",
    "count --random --n0 2 --widths 3,2 --seed 1 --format json",
    "count --random --n0 1 --widths 2,2 --scale 3 --samples 40 --format json",
    # Error paths: each prints one "error:" line and exits 1.
    "count --triangle down --box-radius 0",
    "count --random --n0 5 --widths 2",
    "bound --n0 0 --widths 3",
]

GOLDEN = {
    "bound --n0 2 --widths 3":
        "50cf2d61d50564693400421308898e59495029ddfca3e69cd4353efb24bdb334",
    "bound --n0 2 --widths 3 --format json":
        "7ae144cb3ee2ff12fdb6124277d3d04f64c3c57c61bd9f6373cb651466e4fedd",
    "bound --n0 4 --widths 4,4":
        "aded0e7408d46e2ab71cdea06397b6896f5763dc952366315e0aaaa008586a1b",
    "bound --n0 4 --widths 4,4 --format json":
        "9a87aed8cf1a5183ab8c1589890e58f9a7e0b2956cb1d043726ae692c62e15f6",
    "bound --n0 3 --widths 4:x6":
        "4d782a4515d1167d1e6fb2583006a0183e7ee8aa138038fe4919e399970a7630",
    "bound --n0 1 --widths 1":
        "df9d341ecac1c34e8c4a59f7f501b97bc753b58500babbdd45c7b2ce4e7b4908",
    "bound --n0 2 --widths 3 --gamma naive":
        "e155cd47ff08ecf08137074571bcaa157dfe92709aa150f10b51f617aec0ad99",
    "bound --n0 2 --widths 3 --gamma zaslavsky":
        "1b61e339b9ceee727bfbf72167dc04836519e5e02be4c01931637d9600212517",
    "bound --n0 2 --widths 3 --gamma binomial":
        "74dc30dafe384f78ad0611172db9cc58313221425ffa77f79908c7cad3f62b2c",
    "bound --n0 3 --widths 5,2,4 --gamma binomial --format json":
        "53ed4bde08584a504974802bddbb0a5c91dee08f80ad875c842ad7929b003a65",
    "bound --n0 3 --widths 5,2,4 --gamma zaslavsky --format json":
        "565fad41cc3f907210c0c4fee55a38f441c382dffc10c44fe7d67e077dc34595",
    "bound --n0 3 --widths 5,2,4 --gamma naive --format json":
        "fe0ce11d36ebd08f8e39b0eb9d7fbfec0a3c3364bd6e77ad776aae70934778d3",
    "table --n 4 --l-max 3":
        "ffd14665e4ac86ab033f35bd1f8143af4e29a5b6304320d23b579d00e8dfc35e",
    "table --n 4 --l-max 3 --format csv":
        "d5f0e3b09882a6c26b308a445584b63557a451bcf2b21b0e0186ed46e27a1c1e",
    "table --n 4 --l-max 3 --format json":
        "5f4a0e35058376218871bd1974ab59915303eca3a71fc4063ebb73d5346c589e",
    "table --n 12 --n0-list 1,6 --l-max 2":
        "5827ad5e7d6d7272452a3a6273154cda8cf87b13f40a1a44a5a97e3f59699c73",
    "table --n 3 --n0-list 1,2 --l-max 2 --format json":
        "14bbfdefdd7116b15b1f742b87d4a524258ec393b82cc41f4086c9905fb7e742",
    "matrix --gamma binomial --n 4":
        "c68670623fd45b3daea6a6e9ae3a5d724967e470acc23e299451904e1ad9440a",
    "matrix --gamma binomial --n 4 --format json":
        "cfdf56936871f7a3e0e9ef378b28dee49258110cb62d5fa497c7ace1b38eebe4",
    "matrix --gamma zaslavsky --n 1":
        "7f0f16f5866b97fc6dfead96a1bcb58459fbce75b03d5ce57d4b08f92dbde351",
    "matrix --gamma zaslavsky --n 3 --format json":
        "b9775615b47f140a877177d0e0fc6c3de896e95ae10ece78ffb29cf99814a9be",
    "matrix --gamma naive --n 5":
        "e45c90018eeb88473bd7fd929550f4255c83de71a845ca7689dcddce39eb7ca2",
    "matrix --gamma naive --n 5 --format json":
        "50e5f1789d3e5363d44b28694ce366d16741c033dc728818df410f81c80b3767",
    "matrix --gamma binomial --n 11":
        "fd27e47b401a584bb88f724285f0601c8746036d12282fa27015b090927e7208",
    "decompose --n 4":
        "9266a939cb468aeeb451112d5bd3a2c351d610d8fd7ade3d4a75fc8ce7ad6583",
    "decompose --n 4 --format json":
        "d17f1e5cf030960295617443a8a04832b3783cb793c701deed8488eac69bc0ac",
    "decompose --n 5":
        "8d0d447444fb2f9a80362cf8954538f37edbefef3db1889cc0fb5afd3825e821",
    "decompose --n 5 --format json":
        "060e163ff581eb318896c3bc30e77370b37c0b1ab6ce70fe68473dae1d2f3c91",
    "asymptotic --n 4 --n0 2":
        "3b10268cd8d92104a6248fd10246a2b446ab60b4fc0a10a62e603b2e88295ff0",
    "asymptotic --n 4 --n0 2 --format csv":
        "e93ead7e7a0a33754c2898b5a4b13d655cc80d61ba459f5c0ef54d8b2f57ce9d",
    "asymptotic --n 4 --n0 2 --format json":
        "d6457c46fd60010910543f87f6eec402c4df13f24365441154483b3dd6b3c9dd",
    "asymptotic --n 5 --n0 5":
        "450bd7953e4fbd310da29513937d722ee7e535bf2a5b7cfda388955d60866b48",
    "asymptotic --n 7 --n0 3 --format csv":
        "98ffca2d97b34747984f3855cc1346d7d32736ce6264676be96904326f2ba1b3",
    "asymptotic --n 7 --n0 3 --format json":
        "29ea2c982c9f43f77741401c3df17268efefb7bbd36195ad0e62fb36690142ba",
    "count --triangle down":
        "a6165de0503bf1a76e7d858ec363fea5618d458ac8cebd8a1bf8158ce48800dc",
    "count --triangle down --format json":
        "b73239ac099b9d3418b78ada35a5a0ab6043b2217cf6d11091fe493ed912128d",
    "count --triangle up --box-radius 10":
        "51edd08a8da6f10e20fd38eadd02f8fb0bb8ba60e78e265e291cc40a78ac899d",
    "count --triangle up --box-radius 10 --format json":
        "868c1192344d72dec1fca6caf1c0b11e4b2aaad8afa1baeeac9afff81c7ae8b6",
    "count --triangle down --box-radius 10 --samples 50":
        "4dce45fd0a41b316ce9916ecf3b7203fc927fc3cdd5939395649c4d81e0a743b",
    "count --triangle up --samples 200 --seed 3 --format json":
        "3f797d60bf5b269884358599b7ad8bae3359cc5546efbe41718542bc588b47ac",
    "count --random --n0 2 --widths 3,2 --seed 1":
        "689a2d8b9705e87aa829d03e408c83ece6a20c4891a2ab4e9b851dad00419753",
    "count --random --n0 2 --widths 3,2 --seed 1 --format json":
        "afd4de2a32f29e3183926d822d9ac9e87eaeb8b411e03910aa3f39cc554f0e26",
    "count --random --n0 1 --widths 2,2 --scale 3 --samples 40 --format json":
        "9b9f8f8b0e225c35e6c787d579252cc34b87e679e3c5bb62d1bc3aaf6575fdfc",
    "count --triangle down --box-radius 0":
        "8f470dc8f82507acfb11392e850733d9676e28706e5a9abc7dea5dcade7a8bac",
    "count --random --n0 5 --widths 2":
        "38aede2324b9f2fda2aa189fd86af9a6627cf6d333aed181da7f051b3fc6cbe5",
    "bound --n0 0 --widths 3":
        "2ab80adbd5563f5a6bd1b395ee7e167cb05333c501e9d14e781b7620d73eefe6",
}


@pytest.mark.parametrize("line", INVOCATIONS)
def test_output_is_byte_identical(line):
    assert digest(line.split()) == GOLDEN[line]


if __name__ == "__main__":
    print("GOLDEN = {")
    for line in INVOCATIONS:
        print(f'    "{line}":\n        "{digest(line.split())}",')
    print("}")
