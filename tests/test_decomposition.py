"""Factoring bound matrices: templates, powers, closed-form norms, rates."""

import hashlib
import math
from fractions import Fraction

import pytest

from relubound import (
    BINOMIAL,
    asymptotic_report,
    build_bound_matrix,
    build_decomposition,
    closed_form_norm,
    power_B,
    power_J,
    verify_B_equals_C,
)
from relubound import decomposition
from relubound.decomposition import _matmul

F = Fraction

# size-5 templates, i.e. the factorization of the width-4 bound matrix
P5 = (
    (F(1), F(0), F(0), F(0), F(0)),
    (F(0), F(4), F(0), F(0), F(0)),
    (F(0), F(0), F(1), F(-1), F(0)),
    (F(0), F(0), F(0), F(1), F(-1)),
    (F(0), F(0), F(0), F(0), F(1)),
)
P5_INV = (
    (F(1), F(0), F(0), F(0), F(0)),
    (F(0), F(1, 4), F(0), F(0), F(0)),
    (F(0), F(0), F(1), F(1), F(1)),
    (F(0), F(0), F(0), F(1), F(1)),
    (F(0), F(0), F(0), F(0), F(1)),
)


def j5_power(l: int):
    return (
        (F(1), F(0), F(0), F(0), F(l)),
        (F(0), F(5 ** l), F(0), F(l * 5 ** (l - 1)), F(0)),
        (F(0), F(0), F(11 ** l), F(0), F(0)),
        (F(0), F(0), F(0), F(5 ** l), F(0)),
        (F(0), F(0), F(0), F(0), F(1)),
    )


class TestTemplates:
    def test_xi_values(self):
        assert build_decomposition(5).xi == (1, 5, 11)
        assert build_decomposition(4).xi == (1, 4)
        assert build_decomposition(1).xi == (1,)

    def test_width4_factors(self):
        dec = build_decomposition(5)
        assert dec.P == P5
        assert dec.P_inv == P5_INV
        assert dec.J == j5_power(1)

    def test_parity_label(self):
        assert build_decomposition(5).parity == "odd"
        assert build_decomposition(6).parity == "even"

    def test_bad_size(self):
        with pytest.raises(ValueError, match="dimension out of range"):
            build_decomposition(0)


class TestIdentities:
    @pytest.mark.parametrize("size", range(1, 11))
    def test_p_times_p_inv(self, size):
        dec = build_decomposition(size)
        prod = _matmul(dec.P, dec.P_inv)
        for i in range(size):
            for j in range(size):
                assert prod[i][j] == (1 if i == j else 0)

    @pytest.mark.parametrize("size", range(1, 11))
    def test_pjp_inv_is_c(self, size):
        dec = build_decomposition(size)
        assert _matmul(_matmul(dec.P, dec.J), dec.P_inv) == dec.C

    @pytest.mark.parametrize("n", range(1, 11))
    def test_c_matches_bound_matrix(self, n):
        assert verify_B_equals_C(n)
        dec = build_decomposition(n + 1)
        rows = build_bound_matrix(BINOMIAL, n).rows
        for i in range(n + 1):
            for j in range(n + 1):
                assert dec.C[i][j] == rows[i][j]

    @pytest.mark.parametrize("n", [0, -1])
    def test_c_check_rejects_bad_width(self, n):
        with pytest.raises(ValueError, match="dimension out of range"):
            verify_B_equals_C(n)


class TestPowers:
    def test_j_power_template(self):
        for l in (1, 2, 3, 7):
            assert power_J(5, l) == j5_power(l)

    def test_power_b_matches_repeated_multiplication(self):
        for n in range(1, 7):
            base = tuple(
                tuple(F(x) for x in row) for row in build_bound_matrix(BINOMIAL, n).rows
            )
            acc = base
            for l in range(1, 9):
                direct = power_B(n, l)
                assert all(
                    F(direct[i][j]) == acc[i][j]
                    for i in range(n + 1)
                    for j in range(n + 1)
                )
                acc = _matmul(acc, base)

    def test_non_integral_product_is_caught(self, monkeypatch):
        real = decomposition._templates

        def halved_inverse(size, l):
            P, J, P_inv, C = real(size, l)
            return P, J, tuple(tuple(F(x) / 2 for x in row) for row in P_inv), C

        monkeypatch.setattr(decomposition, "_templates", halved_inverse)
        with pytest.raises(RuntimeError, match="decomposition inconsistency"):
            power_B(4, 1)

    def test_power_entries_are_ints(self):
        out = power_B(4, 3)
        assert all(isinstance(x, int) for row in out for x in row)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            power_B(0, 1)
        with pytest.raises(ValueError):
            power_J(3, 0)


class TestClosedFormNorm:
    def test_matches_power_column_sums(self):
        for n in range(1, 17):
            for l in (1, 2, 3, 5):
                mat = power_B(n, l)
                for i in range(n + 1):
                    col_sum = sum(mat[r][i] for r in range(n + 1))
                    assert closed_form_norm(n, i, l) == col_sum

    def test_width4_table(self):
        # per-depth values for input dims 1..4 at width 4
        for L in range(1, 7):
            assert closed_form_norm(4, 1, L) == 5 ** L
            assert closed_form_norm(4, 2, L) == 11 ** L
            assert closed_form_norm(4, 3, L) == 11 ** L + 4 * L * 5 ** (L - 1)
            assert closed_form_norm(4, 4, L) == 11 ** L + 4 * L * 5 ** (L - 1) + L

    def test_bad_index(self):
        with pytest.raises(ValueError, match="index out of range"):
            closed_form_norm(4, 5, 1)

    @pytest.mark.parametrize("n, i, l", [(0, 0, 1), (4, 1, 0)])
    def test_bad_dimension(self, n, i, l):
        with pytest.raises(ValueError, match="dimension out of range"):
            closed_form_norm(n, i, l)


class TestAsymptoticReport:
    def test_bases(self):
        rep = asymptotic_report(5, 5)
        assert rep.montufar_base == 32
        assert rep.binomial_base == 16
        rep = asymptotic_report(4, 2)
        assert rep.montufar_base == rep.binomial_base == 11

    def test_odd_width_full_input_halves(self):
        for n in (1, 3, 5, 7, 9):
            assert asymptotic_report(n, n).binomial_base == 2 ** (n - 1)

    def test_log_rates(self):
        rep = asymptotic_report(4, 4)
        assert rep.log2_montufar == pytest.approx(math.log2(16))
        assert rep.log2_binomial == pytest.approx(math.log2(11))
        assert rep.stirling_exponent == pytest.approx(
            4 - 0.5 + math.log2(1 + 1 / math.sqrt(4 * math.pi)) / 2
        )

    def test_bad_args(self):
        with pytest.raises(ValueError):
            asymptotic_report(0, 1)


def template_digest(*parts) -> str:
    """sha256 over str() of every entry, so it pins values and not types."""

    def text(x):
        if isinstance(x, tuple):
            return "(" + ",".join(text(y) for y in x) + ")"
        return str(x)

    return hashlib.sha256(text(parts).encode("ascii")).hexdigest()


def decomposition_digest(size: int) -> str:
    dec = build_decomposition(size)
    return template_digest(dec.n, dec.parity, dec.xi, dec.P, dec.J, dec.P_inv, dec.C)


class TestTemplatePin:
    """The printed factors, not only the identities they satisfy.

    When the templates change on purpose, regenerate the tables with
    ``python tests/test_decomposition.py`` and review which digests moved.
    """

    @pytest.mark.parametrize("size", range(1, 41))
    def test_decomposition(self, size):
        assert decomposition_digest(size) == DECOMPOSITION_GOLDEN[size]

    @pytest.mark.parametrize("size,l", [(s, l) for s in range(1, 25) for l in (1, 2, 5)])
    def test_power_j(self, size, l):
        assert template_digest(power_J(size, l)) == POWER_J_GOLDEN[size, l]


DECOMPOSITION_GOLDEN = {
    1: "47171c3721413deba19ac8d3ceabc1107f1d449c29ca23fa938a217c76ea9ba3",
    2: "979e38111bd8f2bcaaff59c5e0c6f6c059e6f09fc3ed36056620470b57fed473",
    3: "3fc7f9132dbd1d785d0a292d108d2749aefd6649d95c76c9059ff85aa0bf1baa",
    4: "279446a905bbdf8479ce3abe77114df9a27b5a5edd8ac73e050b79e605fc2a8c",
    5: "afca6360f43379aa3f64489a9027735553b2db5ff16913edbc2cafb3f603ecee",
    6: "f3e014aa6e0b50176a44b171c9057479d612cf96720391c2498a281875d189c7",
    7: "e233fc77c38edea3858d3c0d2bcf3cc45145ebf46220516274810625dc767f9d",
    8: "942e03307d0a1a56d0bec23f7047ad308b665897af1d5bfbf8a05342d177940f",
    9: "9c781c7973e3fbef4bc5a9fa06a9eb979a9fd6d0bfbbc9c0affcce9053c178b0",
    10: "088fd83dbaf34a02989ff154bc20399e5239ac8196986e4988fe9bc6833eff41",
    11: "13399f53dc2b8fa2ab72976c5cc4312568cc4e4ed6a3e2a44686a2f8aa89b3d8",
    12: "030531f1c64503b8c73f41f90bda053eaa57ee106ff871b9e68f1b9457db4421",
    13: "78aa893e72716bf26b7d8c92deca4157ff5d0279d85ef25d8afd27fe9212cc14",
    14: "d03673320b2cfdfad20c5dea2b6d6e8d767a8c2e7018dac8846a7ba428089750",
    15: "781206129c37134af89003d7f2a25d8db9d432ee11931b6ff7772e43b98135a9",
    16: "f4e1a4ea87cf11a1f202cefd8779391805f86a7e1ea6749662b95c49b0fcfff7",
    17: "b76493b921438618452a292dd4fade8f9afee3d148831dca3d6dfb0319508dc6",
    18: "c8d892cfeea03ef2eb693d2e0a8db3628492be7a03b1b08d8d8397a5562312a4",
    19: "79a582941228571991b35d70b701629bbb15351d7edd0c8b18a8f461a22b2c0b",
    20: "942188725bb0dcc235dc57e222fb0810382708c0282aeb93e276b96eb67ea28a",
    21: "f603519b874c40f1cf32c36ab3f9c00b0ece4b6a3c021f08de91eb5074cf4697",
    22: "8d7174b4fb1b0ebb47e2b528e8a91ce98f069172279dd994b81b37a7fccaebaf",
    23: "4209d8ba2de0d032ab4f519feaf1ef871ed645ef6ce12b523abbd4d10af4eafc",
    24: "80e4c7916e86cbd1ce008e227335099f2fe1af679cd24bf0b0208dbc1d0915dc",
    25: "696ab12cb1202d50118facda77cbefa2da82eb152968c8e2b3329cb2e2e968a2",
    26: "3df4e19c8c12e0920fa774fc4293b6e8c40d4336a9d3b50123722c62d4ca83fa",
    27: "a65bee79e5d268e660cd72a17395e49bfd061bdc5ed1654da7667688c1670c56",
    28: "f787d41dc0c3cf339d16ffcdc67aae862b90c21467844468408b8f86503df409",
    29: "038d0cab372e99229ba18191df3906609442a226f0c48588b0a671a8e2cc83c7",
    30: "e30cce6a78e3b434b2585d327a3522f2e2d60e348fe047c0ac3b056fe053bc64",
    31: "ae7277261730f8f92b7e4abe11df3eea85e2e1129286f139a3bb24ded8f344d5",
    32: "3e0165695b484e1b4d58c9af87ba28e8d4a122a8aa9b56a8903a2c469777fc01",
    33: "e855534fa61d08d7c19ab6b6f73b0ac302ef583bc6c09a25bd853bd1f79ab7fa",
    34: "0a4c22274831b610454915fa63a4acf560be0eea75ff1d79a1a154f7fd20d146",
    35: "1032b23a889cb0860cb7404a3bfad4d861e93a7017d7bbdcc513cf82e063054b",
    36: "419d27df874b35cefa658a023db32c6b73e36b8d056640de904c0cf00885af6e",
    37: "7bc23e9f637e2c782a1ffd496b1e2efe0f54442f60b47884d365db0ab620d818",
    38: "ff5020399a85d4cb725b01b850761d994f107504acceaa2e30d77aeba42f8de1",
    39: "c70c05618c15726b7ca6834795350466cf00a0fea4b07167a068209628128d3c",
    40: "3632ff540919b42ca6c20319ab3b5e503f8e631f0f727a98df76d3baff0670b9",
}

POWER_J_GOLDEN = {
    (1, 1): "c8b35a6e026e76f31681e107a861aba0d5178501ab3db891525ea8fd5f75d329",
    (1, 2): "c8b35a6e026e76f31681e107a861aba0d5178501ab3db891525ea8fd5f75d329",
    (1, 5): "c8b35a6e026e76f31681e107a861aba0d5178501ab3db891525ea8fd5f75d329",
    (2, 1): "58f6e9a8326a6cbde0ebc0fab0c1c32cece7d9347fac8d9b88abef15b749fdbe",
    (2, 2): "07e22637e2197811b2035cef90f36588fb1978a6b8d886562a642180d1a9046b",
    (2, 5): "33b487bf5fcad258f107de62e7b128b324bea4af2002178fcde8f96c94e5b97b",
    (3, 1): "50d0ac6e2f8a8c37848612bc9262f721804750c628ae5900c5b37f8f069b1cc4",
    (3, 2): "22bde23c3709b25fb994a990b73edc3036283eb387419c7a4e36e52152e80adb",
    (3, 5): "7b7b5ef22c36bf2d6b016afb57c8319ea4640a92b203817238782b49d54d4b05",
    (4, 1): "f36ff7c3e3de535411d95c9341ac872a82e5d2be38af918d4f529acba70cdd1b",
    (4, 2): "a6903f8bab83353a14b55328bceeee51a17243de31553cfffd747feb6edf5b0a",
    (4, 5): "39e0dfe8c3e3c313eae687561966b5e2ec657a3b1ccf6091072b0391dbfcc818",
    (5, 1): "a53ce210192a94cc4f868d485978d28e97e6c0d7a08e3446a5e027cba873d733",
    (5, 2): "1098d4dc99d897c5c69433b5cde80ef66517fad01ae0dde16e78305bf66bb7c9",
    (5, 5): "e1b73c968a8e04ede6fcf5a7b9361bf6397b2613ce2c0ec8cc1122b0f1a60757",
    (6, 1): "b0707936f199cedc56d51ed1b479f34533cdaa4e0808bae9f13af00c4150ee22",
    (6, 2): "3fa4012fbd7f2501800fec2afba1bec574ead192b8b6b64309f5b952740bf162",
    (6, 5): "e92feec6b04fa615da1a65466289a042cf37f47cab7881f6d167bda331d3bbff",
    (7, 1): "0fbd3bd85e20a7598864178e4b59889d2d7c34f2f4ca381b259be31563130c2a",
    (7, 2): "84a1b1ec3a2b0afc36e58f04262ffb003da46880de465f85de9bccc5b38951c0",
    (7, 5): "35a076695aa1df634d0407125f7afe997c46b9a786c9806669172feab4cfd614",
    (8, 1): "0ac552aabc3924ae53962b61ea1822e19e491c566ef00fc6860f954f826a2953",
    (8, 2): "8ed61ecc648e1d7c9833a9ac17f48053ac358d6b395289f7ca0afddacec62701",
    (8, 5): "242d7766c3a6858a79b575e3c26f6b72f045c6f66535c0fad2ae15dd2b5ee1e1",
    (9, 1): "a812285988cc67fdfef49cf9a5e36ab163936e4c09e70f54ca257e7dd0881c1c",
    (9, 2): "c7d1df30bf2da792a24a2ff8669d94d4b34f2c7ca577057dd3e5681d436716f5",
    (9, 5): "a3aab0aae8fdad839082e02e877663b2ba4e8a170c87330e760733c15a9dd47e",
    (10, 1): "9d0177700030217a1c6c59592769a75f53acd662adfa96f4af9a4f8cdf9f0051",
    (10, 2): "2fa58224e1d556989bc91a3b75daebc46c294f1dbe8e3bc9ba14ccfadc02fd2e",
    (10, 5): "d03e409b853873f9bda29789e44856f8a3dc872ee2f5e0df1342c0dcdf222bfc",
    (11, 1): "78f5f56bb851a6f60e769ea699c0c6d0342c126baca2231b58541f0e312aea2b",
    (11, 2): "113bc15f0e3f17e198c935e37729caf7352626e6086fa4e742b3e46714afa3c0",
    (11, 5): "dc61f3f066ea220eb4edffb3cd1687752c493fa443e9cd04ddfd2c658bf99f91",
    (12, 1): "fb15930a6179c8621175f9a956eed48add805b6132aaf52622254d5c7be4a9cf",
    (12, 2): "d8c3a14d1ee6d2b2a9c9ea05935f4da0ca1c7d95283980b6eb17282100a4c35d",
    (12, 5): "9b9d61078c4f01af836e5581a8dbf136b2792b5945d800fd9ffa06d7b9a8077b",
    (13, 1): "b8d01f2ef69443693d2dfd8b73177565e878b6e96d19274fdd9fdfeb4475bf3d",
    (13, 2): "b19016a79ed9236fb72625f77a017fcdc6d33c0e6aca44c21f18981e3d10c8b8",
    (13, 5): "be58d3e84e1c5fd826daf593c3b63fca5d9ae0b2158e17426b249583457920b0",
    (14, 1): "4ced4fe9d2efcf4161e750b9694701648dbf47867bdacc3a1216952e554da098",
    (14, 2): "4134ff44a5b10648ec9c4f37a10a05aa7577431f5a9396a4a82bd0cc6410dfb6",
    (14, 5): "0b0b999e4ae1fb37315b1b9ad11087efd16406cbf7312a3f5d8eb3650eb96e79",
    (15, 1): "cc1b01a27f8bbe0039741cd06a87915d7558e154a7854d09d92272199193f761",
    (15, 2): "96518a85d2223e69e3b83a2bb5e1b594c1afed31d6723f7d9468f39eebb79322",
    (15, 5): "aaae9354f24302765d55c06bc9a3dd485cd4632060982d90550aa7949bd211fd",
    (16, 1): "06117228a5c107acfefa96b1a526e80b3fc801ba17c7b4eb12755223cd820e61",
    (16, 2): "98514c5fddd007f7c6bd872c4054af46f356c2758755eae576e9e0ff618e32d8",
    (16, 5): "3e50656298882108692760a53b1212cbde81e77b00edaa4a6c04af8bc48f4e1c",
    (17, 1): "359f1ee830109143e9173af2446aabc9e13d363247553165c1deca80753536f7",
    (17, 2): "4bfcf99f3ce4fbbc97425f95b562943faf43c7ec541d3b916b51682fe2e04a52",
    (17, 5): "5a20f4366a05e3a6251fc9597de29e31b91a47ee7e032327d26ac154e0739f70",
    (18, 1): "08cf4f75d56a8a3a1bf3561bcffebcc3e8ce4e9fc7891edf47239e22e49dc190",
    (18, 2): "5c88a8f5b0226d6b636ff094b25f1aad6a429c1f302b55fd9afce181ce239a8a",
    (18, 5): "5763d0d5bea51170800a56c5bf65a9bf9e5c08c202d4b317ce8b6e6aa33b5bdf",
    (19, 1): "e5ee280a6df09b0209cdf484be0ff6a079f3c1338966e0f6a81eb10fc07ffb54",
    (19, 2): "38b1748f11c62066ccf22c32bd8196dc5c84e835dba466ef37b0b32e982d96b3",
    (19, 5): "159736144a9d2f7befe032c37bbeadf0b183ce47ffd0ef1852c4ea59b1aed08d",
    (20, 1): "33ca578a65c6ff9acc974b6381168d6b978f645ec983356c5a9ea5a267dd1336",
    (20, 2): "878a13ad0d156132b4efb62e4dd7a294bdaacd517b90a58a034b78091225f503",
    (20, 5): "71a106a50ed58943352ffb7a8bb426bb76308e72059b56757c22d7300c095369",
    (21, 1): "f0a0765d2989ec8c956917340be469d578a84080ad49aa0f4ecef24e602c7495",
    (21, 2): "1de3bdceffb75196808b02a0292bb1d31d7b42b5f54f957a3c86370c7fcfe0df",
    (21, 5): "d731b48a8103645938fc11fbb6bd310a54dbf66e5684cbb1b27c576d305c4443",
    (22, 1): "f09097618233bd3412b4a0ac8fecad56ef8560ef68cd6591d8c29c479dfc06fb",
    (22, 2): "14bc6369acf88a372475aee6daf9aff6235debc13452dd9aa630b6a424fe0fc0",
    (22, 5): "980a34c47a24b31dafc9aadb9168e505e05715725c20951a8704b38a45192c4f",
    (23, 1): "3f16438ce2caa22acc41fe474ad7a6c9dabc7f2dc7a12ec8f9de380cb63c055e",
    (23, 2): "f16d63084420b411f9f829db98daa438e81be3b562047714f3de57536013f531",
    (23, 5): "ba561e4fead19eea5dc71dc2046823b069c432c7d401d2ea56284fee7f405538",
    (24, 1): "1bcbc52196b0a687e5a6a92e9ad24c21adf75c66b36006bb45a6e70d34a4c3e8",
    (24, 2): "09e95c85b444504f07d123947255893758dfbcda4a9c044473262a694c9e860b",
    (24, 5): "7cc316af034bc77683549880d011b9186ef1b1f5a6ebb4e7f3d5bda1639d70d3",
}


if __name__ == "__main__":
    print("DECOMPOSITION_GOLDEN = {")
    for size in range(1, 41):
        print(f'    {size}: "{decomposition_digest(size)}",')
    print("}\n\nPOWER_J_GOLDEN = {")
    for size in range(1, 25):
        for l in (1, 2, 5):
            print(f'    ({size}, {l}): "{template_digest(power_J(size, l))}",')
    print("}")
