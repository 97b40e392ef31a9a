"""Byte-exact enumeration output: one sha256 per seeded degenerate network and box.

Each digest covers the per-layer prefix sets and the (prefix, witness)
pairs of the final records, sorted by prefix, so a change to the
enumerator cannot move a region or its witness unnoticed. The networks
have small integer weights, zero rows, repeated and opposite hyperplanes.
When output changes on purpose, regenerate the table with
``python tests/test_enumeration_golden.py`` and review which digests moved.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from relubound import ReluLayer, ReluNetwork, enumerate_regions

BOXES = (10, 10 ** 6)


def degenerate_network(seed: int) -> ReluNetwork:
    """n0 1-3, depth 1-3, widths 1-3; weights in -2..2, biases scaled 1 or 1000."""
    rng = random.Random(seed)
    n0 = rng.randint(1, 3)
    scale = rng.choice((1, 1000))
    layers, fan_in = [], n0
    for width in [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]:
        weights = [[rng.randint(-2, 2) for _ in range(fan_in)] for _ in range(width)]
        biases = [scale * rng.randint(-2, 2) for _ in range(width)]
        layers.append(ReluLayer(weights, biases))
        fan_in = width
    return ReluNetwork(n0, tuple(layers))


def digest(seed: int, box: int) -> str:
    res = enumerate_regions(degenerate_network(seed), Fraction(box))
    payload = json.dumps([
        [sorted(map(list, layer)) for layer in res.prefixes_per_layer],
        sorted([list(map(list, r.prefix)), [str(x) for x in r.witness]]
               for r in res.records),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


CASES = [(seed, box) for seed in range(40) for box in BOXES]

GOLDEN = {
    (0, 10):
        "62fe87029d50860a7eba1105cf36047f659662037426eef53396c19ef5855806",
    (0, 1000000):
        "17dee7a120b26265fa17a7d8cd6df3f15fc8ff4b8e1485b28c8b4119b0bc46d5",
    (1, 10):
        "26e0e3369a987b7df0de35756610139ac06f84c6870289c327aca7fbea7b6e9f",
    (1, 1000000):
        "97b2f8bd59549f19664a64d3cbcef6c6b2980cbb325420687f525d0a8ebb449d",
    (2, 10):
        "f28bda8c08256eb95508d94b1ffe88542bdc74d20d85032561ae85962d6ce3e5",
    (2, 1000000):
        "880b1913f14f4c0581aee1f5580a43744a64243f4befd4d9aee196de0add2308",
    (3, 10):
        "900cf02ab3f020e6ef56021e67df4843fa66fab7441d8e4c066a0e65898f0eeb",
    (3, 1000000):
        "8bb7cc92d3124a068901b84316255a1e9ba178756ca5015025234c4986546325",
    (4, 10):
        "11edcc50b41dacb39a44defefadd011fb92e25793656dcd645a18612fdf7cc75",
    (4, 1000000):
        "f1612b25c18e509f37d6cfcedfc73de0d00931b470b54ddfe4dd43788e83707f",
    (5, 10):
        "736288bea013d98af5cfbca38eb2aef752ea2d5fc244722ce935aae706f2df95",
    (5, 1000000):
        "87ad334a97a2a72d4470db2e2f4081f8e0579c07a4a89efb73f6cfd0facfa601",
    (6, 10):
        "e00cabbe5a3f6f979abcae8a0d810016455f52b82894d65810b617ab2d5d747a",
    (6, 1000000):
        "433a4dd4b481ea8e593d8194124a8fef0a76c937a77949f1bb43c98c22174644",
    (7, 10):
        "d23da7a6628f2c2a39677af5163db0f286a2ddb302fe42a88c03fa23577139ae",
    (7, 1000000):
        "d6639e09dd9fa98d364ef2a3d65c1127cdff6862ffea01aa5ee7215705acec2c",
    (8, 10):
        "61814fa0c66ede4ce80f42d9c11c9dd41079d3d9aa1c1ef7b568a0d0b94f37a2",
    (8, 1000000):
        "383ba22dbc45fa21cb8cbe543ab5acec962b8180680ce2d6f7536828066185f4",
    (9, 10):
        "0bf6096eda19a40063c8c6ac1f59e3b6414c60cbd5f7cd1cfb5897cd5f855e83",
    (9, 1000000):
        "7d5fd9303ce91bf6611a2a0d265d09df7537d8020a3be6d36df0bf3f7b9f2cf8",
    (10, 10):
        "40071f42316751cb08f4679b7c71b7a8648ad1048125d735e8fdf92a5c06affa",
    (10, 1000000):
        "6eb0f478336e3c905d720adce9c18da965c1b3e2c73b03d26ad30d06d91d0985",
    (11, 10):
        "adacb5c5b6c2c0e978f4a57a96850c2dca1dd8d1bd44a376104678958e5638a7",
    (11, 1000000):
        "45aca870854202ff1b82c540ca1f666075cd9bc6d99e416b7ef8b592ba10392d",
    (12, 10):
        "56e5e09e71b2058af5098c17605ce8e73c240ba0ebcc28d59580bb5fa8e94281",
    (12, 1000000):
        "8f178faa4af3954d75083ae48744f58eca819273792983c82578e86404bc75d2",
    (13, 10):
        "51158a820d457f70bddf9415b9983d2aa20e88d920e4b601f64d1441cbd95f01",
    (13, 1000000):
        "f4923d79667c5ed62209fa297ee341a58a854619b19211e9eb629adf5b3daeec",
    (14, 10):
        "65400f4ee969ff739e94db8354d82e51c60bc81f68f92ff6beb7dc0063551206",
    (14, 1000000):
        "d66a6b8c292aaf65c066b2aa8e06676969b12abb1b9c7902deab3942e7476732",
    (15, 10):
        "70e1372a90b633f8181084f4c8ced9ed87cb34e3d847d280e680162c41653a95",
    (15, 1000000):
        "35a765a5c5721890b2874fc7919682ceae591be98cbf6657f23eead7073bfe48",
    (16, 10):
        "ec38f10f259bba44dc1144e6d300fe4715b1484650ef26efdf60b7a5c135dbb0",
    (16, 1000000):
        "29a2924cb453f687aba484332dd43a2651e94afe82d04331a8a85acfab5c9f6c",
    (17, 10):
        "6431d8ecbf456a046436af03ab6b55ef50c02ce729a69f01a054cf41f3c37ea0",
    (17, 1000000):
        "a15f580b743a80e8ec1b5bb1a4aaea03ba07fabda712eee4ea91a1d398289b9e",
    (18, 10):
        "329cf6efd15e6401eae5c87fd24c00ce472ae7515ec501a25787aa22df86fb6b",
    (18, 1000000):
        "95eae0fa402ddf0e6482f1a5d95836565080164e892497f42f5d8214ac47bc13",
    (19, 10):
        "603279427af6e8b43d0927fda67a4678c938ef2976b7be60644528accf518d44",
    (19, 1000000):
        "3d1bee7f7166d88f2a5f36b0e05a2db4c13255c0f91fc8c43dce6e3f1ee3d4f1",
    (20, 10):
        "efa25588cf0bc3b1a1def237f4a3a41a45fa328e013f8c5e9fa0a713264e5512",
    (20, 1000000):
        "6938a961c2150e8281c33dff9c9d26d29de06ee1d559a1e642926f047b4984c2",
    (21, 10):
        "53683b0fd7093e6651c2bfc2d8714c9efc16525985852ffc3c4ac05b0cc4f62b",
    (21, 1000000):
        "71de48a440bd67927386bf4ce91a41f4e997a2aed2a844033388664b2d19dd92",
    (22, 10):
        "b5937aa4efc064916e5fbc941675e98dec52fe69060d0a5f604d5ae81b3424fa",
    (22, 1000000):
        "3c9a43c4a52d63975360b51ec0e80940e92760b06d2f48d53ca6e68b21468eb3",
    (23, 10):
        "96a06b05479704f3948b2b795b80fa4e917ea4b3f84bfb8fbd3e635809b24912",
    (23, 1000000):
        "4dd0c0c3773a9c473e28b26f2145141f008b13b04023e755becc02af61dd13c0",
    (24, 10):
        "8ea5805216a11ff6215fbe76406bfd38f9309b4f8c216bed4c5885cbfd574fe9",
    (24, 1000000):
        "7aa4c1faf0ae118270c73f2cbb4c176f6bf4b28d14302d28b5a4d3213cbc28a5",
    (25, 10):
        "15b0169a2ab9c6dbd0209be3729f8a555cbc0052b52bc96b86ff7eb53ba316a9",
    (25, 1000000):
        "f2d00720e4c2660182f57e2e3a9af57f4e963b2eb0aac03ecb2678c4c1f98bfd",
    (26, 10):
        "65e922dd76ae4209f5ac9af518b6fdc2156fdb8740b4017f4e2582d1cc5082fa",
    (26, 1000000):
        "71de1dfed234d44a3858f27079295129af99ab3a3b64afb068fb612aa22eba78",
    (27, 10):
        "7a93bde973ae5790ed1da5aa4a51c891af4c683336b4bccb50c20bb86c2e8fd8",
    (27, 1000000):
        "f7f063ff1c39b19baec28cc2993cf00fafa0af33c4d74ab8448092dd529cd205",
    (28, 10):
        "15bcb2c3649f0ce846abf30c865e62a811868a89c3a456290327da1562c8215c",
    (28, 1000000):
        "831f8eada5f9c86461d5f9f3c6192c36b84670d26be2d15e51a6012cf255a1a8",
    (29, 10):
        "c0e5223dfeaa32d76e7835c021aa01905e50d03e72a629f9969fe5235e7bed08",
    (29, 1000000):
        "bd92935ad71c57b98bd1d74a843b9a08420cd079a1b66154805db5f44fe382b5",
    (30, 10):
        "01cdff8191b38cbafc1372fd4943776fe5262926f6ffd63ea72e52ad8a03ed8a",
    (30, 1000000):
        "c248b195527ff86983c9fd5ff0cf4f27f60fb3f7e02d6696eb505a8e08da0625",
    (31, 10):
        "207781b5fbcca6272b13a8c350349fa81caf821f4253114aee08a383ecb1a3ec",
    (31, 1000000):
        "0bb505feaba3a58ac488390a9312fb772402b6d0c5c00ada1bbf826d9d26f3e3",
    (32, 10):
        "337ccc761a481d35f5810167ecbce58074bb21afcb4b5ad309aa7b8e3a9f615a",
    (32, 1000000):
        "f86fe1c16221ffe4e51c61d15936d42fe62e97efd250a1a7309263c7b679e4ef",
    (33, 10):
        "e6d75299ff1d02105417d751fc1975778b2b2e9be00cb7cf51fab5bc49894301",
    (33, 1000000):
        "40eb5e5b8d560f005cbc2d663b5aa4010a479ca4d87096c9170b0b088d05f1cd",
    (34, 10):
        "f041b6856daddf18b30a7a880c815576aafde7655365ea6ad6073f2346050c71",
    (34, 1000000):
        "ddda51c7d72076b30ff64bde52cfa689748f96097cfcaf9aecd3ae1a51f5ed9f",
    (35, 10):
        "64838fdd3deefdce3fdf79d87ccb3604df110365e57cc0126b8396536b1dd7f4",
    (35, 1000000):
        "f25cdb52337b86c46b7c0938707c3c9e357753f64808436b672eced09f1b0a98",
    (36, 10):
        "abe8902c2e3fd92132a1c1e13870a3336fcb2ce5e18a9b62741f9ab6821861d9",
    (36, 1000000):
        "0eeb16a041b3e0f7f358c8fe96cf5b9244bf9fe732f2d2081426ffefa20760df",
    (37, 10):
        "62310ed9370fa688ad46f14d925ddee567ee723ae3bc20f3732c44c63b0e8287",
    (37, 1000000):
        "6ae3814ea12a14835be5478c6ad06ec6f4b7d5b96c4c0cf00d814fe581e02294",
    (38, 10):
        "35ca6c83032d3b17ab1a0277f0d551b941fed0bc326af2b2ce829d05100d354e",
    (38, 1000000):
        "46e7288cbeae813a75eefbd9aa7d0b6dd98a22cd71f40a34ff489a550e0b2fc7",
    (39, 10):
        "694127a36afb220a8c04257da6b46a577d69a4307aabf6667bcf9bbadc01fd52",
    (39, 1000000):
        "e918f1fa8a2f3d1b33f1c7db642b1bc10a7a5decd7f107aafa97077efb4b319b",
}


@pytest.mark.parametrize("seed,box", CASES)
def test_enumeration_is_byte_identical(seed, box):
    assert digest(seed, box) == GOLDEN[seed, box]


if __name__ == "__main__":
    print("GOLDEN = {")
    for seed, box in CASES:
        print(f'    ({seed}, {box}):\n        "{digest(seed, box)}",')
    print("}")
