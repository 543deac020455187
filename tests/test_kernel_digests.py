"""Pinned bytes of every step kernel's output.

Each case runs one public kernel (``diffuse``, ``iterate_shrinkage``,
``minimize_by_diffusion``, ``chain`` or ``euler_lagrange_residual``) for
one closed-form family on one fixed signal and hashes the output's
float64 bytes.  N is 16 (one window), 100000 (four windows, one part)
and 2^20 + 3 (33 windows, parts on every usable CPU, a short last
window); h is 1, and 0.5 for every kernel but the Haar step, which needs
h = 1.  The steps are a few stable steps of each plan.  A change meant
to keep the kernels' arithmetic must keep every digest; a case that
differs is named in the failure.
"""

import functools
import hashlib

import numpy as np
import pytest

from denoise1d import (
    EnergySpec,
    Family,
    FamilySpec,
    ResidualBlock,
    Role,
    Signal1D,
    StepSizeMode,
    chain,
    diffuse,
    euler_lagrange_residual,
    iterate_shrinkage,
    make_diffusion_block,
    make_role_function,
    max_stable_tau,
    minimize_by_diffusion,
    relu,
    translate,
)
from denoise1d.diffusion import _lipschitz

SIZES = (16, 100_000, (1 << 20) + 3)


@functools.lru_cache(maxsize=None)
def _signal(n, h, seed=0):
    # Noise on a staircase, with exact zeros, negative zeros and a flat run,
    # so the differences hit every branch of every family (theta = lambda = 1)
    # and signed zeros meet in the Haar step.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 3.0 * (np.arange(n) // 97 % 3)
    x[::7] = 0.0
    x[1::13] = -0.0
    x[n // 3 : n // 3 + 40] = 1.5
    return Signal1D(x, h)


def _bias(n, seed):
    return 0.1 * np.random.default_rng(seed).standard_normal(n)


def _run(kernel, family, n, h):
    spec = FamilySpec(family)
    f = _signal(n, h)
    if kernel == "iterate_shrinkage":
        return iterate_shrinkage(f, make_role_function(spec, Role.SHRINKAGE), 3)
    psi = make_role_function(spec, Role.REGULARISER)
    if kernel == "minimize_by_diffusion":
        L = _lipschitz(translate(psi, Role.ACTIVATION), f)
        alpha = 2.5 * max_stable_tau(L, h, StepSizeMode.MAXMIN)
        return minimize_by_diffusion(f, EnergySpec(psi, alpha), 3)
    if kernel == "euler_lagrange_residual":
        return euler_lagrange_residual(_signal(n, h, seed=1), f, EnergySpec(psi, 0.3))
    phi = make_role_function(spec, Role.ACTIVATION)
    tau = max_stable_tau(_lipschitz(phi, f), h, StepSizeMode.SIGN_STABLE)
    if kernel == "diffuse":
        return diffuse(f, phi, 3.0 * tau)[0]
    wide = ResidualBlock(
        w1=[0.25, 0.0, -1.0, 0.5, 0.125], sigma1=phi.evaluator, w2=[-tau, 0.5 * tau, tau],
        sigma2=relu, b1=_bias(n, 2), b2=_bias(n, 3),
    )
    return chain([make_diffusion_block(phi, tau, h), wide, make_diffusion_block(phi, tau, h)], f)


def digest(kernel, family, n, h):
    out = _run(kernel, family, n, h).values
    assert out.dtype == np.float64 and out.size == n
    return hashlib.sha256(out.tobytes()).hexdigest()


def cases():
    for kernel in ("diffuse", "iterate_shrinkage", "minimize_by_diffusion", "chain", "euler_lagrange_residual"):
        for h in (1.0,) if kernel == "iterate_shrinkage" else (1.0, 0.5):
            for n in SIZES:
                for family in Family:
                    yield f"{kernel}/{family.value}/{n}/{h}", (kernel, family, n, h)


# Taken from the kernels as they were before the windows wrote into the
# step's output and the Haar step dropped its negation.
PINNED = {
    "diffuse/constant/16/1.0": "97918538d7b89ed47ffd85882e37b74f2c05135c43f17b31ccd38c7cbd6b8194",
    "diffuse/charbonnier/16/1.0": "ac27507723086c55dd260d92ae4766471e6e09b81b1a289222c4298a08ce8adb",
    "diffuse/truncated-tv/16/1.0": "68e3d00dbe29ac829e475849bbdf6b4f4ea1e513bf7500a1dff79dd1be28780e",
    "diffuse/perona-malik/16/1.0": "79b11abc56d1cd8e1a66fcb629ab419081683c3c60f434906b3af6deac2cf05d",
    "diffuse/truncated-bfb/16/1.0": "1bb302247996a55c201a0027685cba798f23933d0ae15f8ab362ee506a03ac21",
    "diffuse/truncated-quadratic/16/1.0": "0f4cbb7fdf9cfce210ab7defdac256991e3ffca5f723938659e70a5455c67245",
    "diffuse/constant/100000/1.0": "b0b412c8c76cc0899985768a53596facccdce55fb7ddcb98244acbd3073a0758",
    "diffuse/charbonnier/100000/1.0": "323f7c4ea4270c441b29b45cda9eccd47ced205fc71e376a353e315f5b8e8f56",
    "diffuse/truncated-tv/100000/1.0": "636767d892d50072b73aa0e1dc178165981f91280ea5de00416ca4f620289fde",
    "diffuse/perona-malik/100000/1.0": "8bc4b18cc1207f2e7e330aae26277fe587a3e2a2472d74c527dc3dab2a60e53f",
    "diffuse/truncated-bfb/100000/1.0": "75a4b45cd7a54465fd09880c0a684d92e3af8eb9c711cf64ca4024f94dd9822a",
    "diffuse/truncated-quadratic/100000/1.0": "20dd1019febbcf4ca445fa21543b0db9426e5e1f9886b6a489c4ec05d75a5a61",
    "diffuse/constant/1048579/1.0": "edcab406960baaba678d8f0fc9ff7d6210a56d51c2115cda1300306efceeb3b1",
    "diffuse/charbonnier/1048579/1.0": "4bb2fbcad39a043941c37530ddbbecaaabe62a8448b9faf574cfbfcb3fba3c1f",
    "diffuse/truncated-tv/1048579/1.0": "84bd5352584322bef8ea1c3b3f8289caff37807d490259e9e245bf99934df842",
    "diffuse/perona-malik/1048579/1.0": "b9a3cf015b68df5f5ab4947e45ab73034034dbd2f03482a7c172732c89cec0a9",
    "diffuse/truncated-bfb/1048579/1.0": "9538b6693ecc3bd3a8e1781aa64e7ee9bc8751f8f0aec0897abbdcd1abd7fc19",
    "diffuse/truncated-quadratic/1048579/1.0": "ae87ef37f5f344a04b3943208c82259a9f54ddfd10ddfda7ea44f3117256b6b6",
    "diffuse/constant/16/0.5": "97918538d7b89ed47ffd85882e37b74f2c05135c43f17b31ccd38c7cbd6b8194",
    "diffuse/charbonnier/16/0.5": "effaf54f94e7b5aec76f7185d9661fcf889c653f7d7397ae0141f31e826a0c46",
    "diffuse/truncated-tv/16/0.5": "236ecc3b6dd45cbbef3a74b13b38e4d50c8e438778c88d691508fd546142033a",
    "diffuse/perona-malik/16/0.5": "a838c5da30dc3257ec90d59bf8f7f298eb9b8e4947e9fedec3896e7e4551e2f4",
    "diffuse/truncated-bfb/16/0.5": "0942e2242383796ca30be2ee650fbc646362364a78cd9556baf548c9c9702218",
    "diffuse/truncated-quadratic/16/0.5": "387e3ca468046dc81da6aa4bc0b772de5f884f67d0dd1b3d3549644187f7e597",
    "diffuse/constant/100000/0.5": "b0b412c8c76cc0899985768a53596facccdce55fb7ddcb98244acbd3073a0758",
    "diffuse/charbonnier/100000/0.5": "7f23875e303e919d21f3cc4e4e28b896f20d20fb426964288599098d3c45865a",
    "diffuse/truncated-tv/100000/0.5": "7fef8100489d98bf653a55bd25071dc06d46882d34e868b096feced9ef3d98bb",
    "diffuse/perona-malik/100000/0.5": "97a40b09661cb0461963691b598017895c492496c0f4ae4fbeea7fde13427bca",
    "diffuse/truncated-bfb/100000/0.5": "57606368a1c17736bbcbac786464a2b6204fefb0cee30848a2b7d4307439e30a",
    "diffuse/truncated-quadratic/100000/0.5": "d7a7876ed0c7486c207fcff14b4530f60197f020a3fd516e492fa216ed5bc0a0",
    "diffuse/constant/1048579/0.5": "edcab406960baaba678d8f0fc9ff7d6210a56d51c2115cda1300306efceeb3b1",
    "diffuse/charbonnier/1048579/0.5": "e91b34811a4931b0230d8217069cee39a1cca5c286db6f95dcb66bb20b31598c",
    "diffuse/truncated-tv/1048579/0.5": "2ea0b586a69326f498d30ec5acca3c9c0e1e4e897c8a25a55ff04d192fe406be",
    "diffuse/perona-malik/1048579/0.5": "7af9ea3d38a85fd6e1711c17ad5f8be8da61e9ad982c48b1c41acd315cfaaf95",
    "diffuse/truncated-bfb/1048579/0.5": "f98bc9fc068c125c57c8918a5da6941e88348558d599ad3c2acac4b56a48479f",
    "diffuse/truncated-quadratic/1048579/0.5": "fd32e079b2bac535f7aaecd22e6358648b678bc81a6b0c367381d35a20e8ca60",
    "iterate_shrinkage/constant/16/1.0": "97918538d7b89ed47ffd85882e37b74f2c05135c43f17b31ccd38c7cbd6b8194",
    "iterate_shrinkage/charbonnier/16/1.0": "3fa448f753879849d4cfbcd9650505632b7af941170b17499e32653a2f62c0dc",
    "iterate_shrinkage/truncated-tv/16/1.0": "9844040171ab7aa576f3acce7d40e90ca0a0efeb0c5e5094871f22f25c31141c",
    "iterate_shrinkage/perona-malik/16/1.0": "51d795115ad7a481e643266ce4a3b53b38c6a7a2e029756b4842b0a4f4667809",
    "iterate_shrinkage/truncated-bfb/16/1.0": "383ee431374536c110899a3afd9fa4ea2bb2848205f1a968d318a4170eb82bb7",
    "iterate_shrinkage/truncated-quadratic/16/1.0": "1f28ffdb8c6a83098fc3316538db3d1be8dad9ed9cf9cf504f5a8b757b30ddc6",
    "iterate_shrinkage/constant/100000/1.0": "b0b412c8c76cc0899985768a53596facccdce55fb7ddcb98244acbd3073a0758",
    "iterate_shrinkage/charbonnier/100000/1.0": "21aef75c8831d70febef40ceb334823a92f9c85d04b9250baac3ac52823bf2af",
    "iterate_shrinkage/truncated-tv/100000/1.0": "ad9a55ea9fd5bb1d7b818acd7fef5b8601ddd3f17454d77858344a4cb323649c",
    "iterate_shrinkage/perona-malik/100000/1.0": "dadfd9ed7f1ee2f8509b0f58a38b82e5df049372f54a945aa483adae1a9922f1",
    "iterate_shrinkage/truncated-bfb/100000/1.0": "496ece97efaf1b98b723faa19e486ea3cc9a3c998ed7dda4caccf0384f2275a8",
    "iterate_shrinkage/truncated-quadratic/100000/1.0": "1278a67058066304e9fc2e302d605f97a412e8756963797e3f89647457875629",
    "iterate_shrinkage/constant/1048579/1.0": "edcab406960baaba678d8f0fc9ff7d6210a56d51c2115cda1300306efceeb3b1",
    "iterate_shrinkage/charbonnier/1048579/1.0": "2e0a83269176cd9319e42226ce8ba3e9e4510196a6d36f586257af8e1d47f44e",
    "iterate_shrinkage/truncated-tv/1048579/1.0": "247901f2ae9c69ae15b9200f0e75f09b728a82bc4059d8c1aafb1eac8e696166",
    "iterate_shrinkage/perona-malik/1048579/1.0": "fe17f939f7c96c116a847949bc50562439e901271b49778d448b1c58cc68027c",
    "iterate_shrinkage/truncated-bfb/1048579/1.0": "76ff54cbb8a2b497b763c74decffeae20aaac37733d74aa5e671641380d34b4c",
    "iterate_shrinkage/truncated-quadratic/1048579/1.0": "fc37cec1770fa55f15834397d43b54b9c5eb497a9b14b4cc158df591d0cca749",
    "minimize_by_diffusion/constant/16/1.0": "d53efd6a1e39816fcf026e4793d6f7270c7f987e70fca6f599b0659c7ae47b10",
    "minimize_by_diffusion/charbonnier/16/1.0": "38c0e2dd58eafcbce6b1dd5fd7a804c091a8e370e6854ddb6547ea405f633f8d",
    "minimize_by_diffusion/truncated-tv/16/1.0": "33df08f67e14adfa2843257085caff4ae151133554c3358a85ba7bab9764072e",
    "minimize_by_diffusion/perona-malik/16/1.0": "de704793a501e7bd49eb3e1079d518eaf21c254d1e1cc2b93cdda5c45949f8b3",
    "minimize_by_diffusion/truncated-bfb/16/1.0": "3868af77a88cad0ae4426db2308416925381b0d8b720a887b621551179a25286",
    "minimize_by_diffusion/truncated-quadratic/16/1.0": "05a89f65c9ff1411ba9f79d14bab7c20d2a6ff3aa42e0d1b221cac75dd3c46f4",
    "minimize_by_diffusion/constant/100000/1.0": "e1c16e9440689c39bd3116ab19ec1ac88ee072974a81ef1b146bd5a9f4190db8",
    "minimize_by_diffusion/charbonnier/100000/1.0": "cf72486197d585bd576818b719fc8de531c994ab815ab62ed90a3ff4f0ee4e85",
    "minimize_by_diffusion/truncated-tv/100000/1.0": "00882fa2761b40d4da18b109fab7434d6ec93d9218315d9a65a3a46647e13a28",
    "minimize_by_diffusion/perona-malik/100000/1.0": "8cea1e96ec2c8bc32ffce9c545f769ea40f9b65f1951b51924c6eca69771031a",
    "minimize_by_diffusion/truncated-bfb/100000/1.0": "1e92ef1c853b82439742ed1d35ad85f34723d812d91f9e267c97d5d75a47370f",
    "minimize_by_diffusion/truncated-quadratic/100000/1.0": "9aec603f0d96efd40b8485caf7c0256d4e758c6590482aca0124c4b01f884caf",
    "minimize_by_diffusion/constant/1048579/1.0": "8a33fc9a7783e132ff9baebb01c483f653f3b66a2de091acf090efb542d0da54",
    "minimize_by_diffusion/charbonnier/1048579/1.0": "1473bb43d40f0ba1a350b429e34172b07ed8087b14910278c36b3adad52f5f7c",
    "minimize_by_diffusion/truncated-tv/1048579/1.0": "53ef7a61375370ec9c8fecff0c07c974bd7fc0812f704f567909fe5168bfc124",
    "minimize_by_diffusion/perona-malik/1048579/1.0": "248f0037b5a5eb27994962b20f67f0010aea60a245076b04e17834253b19424d",
    "minimize_by_diffusion/truncated-bfb/1048579/1.0": "18c217bdd6043f7c74e03789cea48c101689ad05a90947010cace268d0a46437",
    "minimize_by_diffusion/truncated-quadratic/1048579/1.0": "50e6bb42d54b231ad28b212dbf0f2bd41fd00b63c45cabd16c20ebb3dd077e22",
    "minimize_by_diffusion/constant/16/0.5": "d53efd6a1e39816fcf026e4793d6f7270c7f987e70fca6f599b0659c7ae47b10",
    "minimize_by_diffusion/charbonnier/16/0.5": "ccecb646d5b76fb3235826eb76b4e71d4137a88649b7dc31adc0002bd4e0bdc2",
    "minimize_by_diffusion/truncated-tv/16/0.5": "dcaaa790cb6b7e82b32b060099761b7b5d56f8b2db9c7ae9af4ef02bae6d1ca3",
    "minimize_by_diffusion/perona-malik/16/0.5": "2ad81e1e2c504d20e46e2b949d2ebf0f42b30233774cea22b71038a3bb8df24c",
    "minimize_by_diffusion/truncated-bfb/16/0.5": "5e6a8d94cf79a9560c2ec57773bf0b35da7a55d05b45e3b4571cfbc29cc2a2e8",
    "minimize_by_diffusion/truncated-quadratic/16/0.5": "ab0e4e7e9d5cfe53b282c86df14c3d10f2849dd532b6b48f852b37a23cef8ac2",
    "minimize_by_diffusion/constant/100000/0.5": "e1c16e9440689c39bd3116ab19ec1ac88ee072974a81ef1b146bd5a9f4190db8",
    "minimize_by_diffusion/charbonnier/100000/0.5": "628c01e2dffd2deb8c8fb411828a229866854f3a309154f25d59179b44328120",
    "minimize_by_diffusion/truncated-tv/100000/0.5": "f4612255fad94ce182215b2977e3c50808cab2df20c9f39c01a158aab6a4d354",
    "minimize_by_diffusion/perona-malik/100000/0.5": "18061e664be1df442d30ea8d6de2da7d741709cc496684cfdefedf95b4800cd8",
    "minimize_by_diffusion/truncated-bfb/100000/0.5": "13a77a7c167019994535daf29084d9f4a855a7ef791cba5677ea9443fd70f253",
    "minimize_by_diffusion/truncated-quadratic/100000/0.5": "9c61f71f90a0654480760c26b59dcabb6310326827d2294feb19416f89be4a4e",
    "minimize_by_diffusion/constant/1048579/0.5": "8a33fc9a7783e132ff9baebb01c483f653f3b66a2de091acf090efb542d0da54",
    "minimize_by_diffusion/charbonnier/1048579/0.5": "571dc851abc3b16cf6625103a1fda08d48d069bbc77135376a17966a488e2b94",
    "minimize_by_diffusion/truncated-tv/1048579/0.5": "e49eb2009975435b96a20ef953a162ed03f5dd71f7f51bd7802fbc8bd4f0619d",
    "minimize_by_diffusion/perona-malik/1048579/0.5": "68deb89105b2050e13c033511a1081b97c25c443fd9beaf5eb008dbf3711c47f",
    "minimize_by_diffusion/truncated-bfb/1048579/0.5": "87c76d1d443f5422b6268f48d5c93468510befd4ca8db1a01cd5115e00b0013a",
    "minimize_by_diffusion/truncated-quadratic/1048579/0.5": "fb5939f03a24ac27e999dd60e48ec44d29e91608cbcde044aa07c7075d5134ea",
    "chain/constant/16/1.0": "ab8a297dc1bfb2e6dc2fb51e9f7e1d4eef2673a1988e7bf23b891a3e21b5f7d7",
    "chain/charbonnier/16/1.0": "a9c555f18c5a25a2bc3c2f4540bad4d38538e2c0b3cd7895c5f005769343ff95",
    "chain/truncated-tv/16/1.0": "4e21e4aa02599dca0f3476ec75f161a4a401a06d8b8b6007b7856543abcd1024",
    "chain/perona-malik/16/1.0": "a88db9d0bb627f3b99e23efbe9226f3f40af88d7951901f6da0589f78d8ed24c",
    "chain/truncated-bfb/16/1.0": "2b0db6d18563805d449495db76287d953a4aef053949be2f0f9d070026d026da",
    "chain/truncated-quadratic/16/1.0": "04998d671cc096a235a1b5cbbbde3e17ae89bc57749fff51fa73043c3a046c52",
    "chain/constant/100000/1.0": "15124ac553bbd7b997113030abfc487541a733b71613a895b978d8a1b2c25d23",
    "chain/charbonnier/100000/1.0": "13f60f3770e14f54875c4beb7f76d44b196318b605c16771f95b7e1727c71374",
    "chain/truncated-tv/100000/1.0": "cd466b2ac5d580eb72875b70d84045a347256c7c3af1e875489b9e34f8a1bec6",
    "chain/perona-malik/100000/1.0": "06a18e5250140f29c83004346faa1b0a5aa1ebe7daa7fb6a0e75bdeb2ffc3347",
    "chain/truncated-bfb/100000/1.0": "95becd02ef72bee205084e31f93b9274ba01b4e224c25e8f4d48bd39f2126208",
    "chain/truncated-quadratic/100000/1.0": "f6e12061d5ead5b691954e3b19bcbb5cc883d6e35db4d49cdf7a0c58a8c36708",
    "chain/constant/1048579/1.0": "319d8b745a35f9853cc98b6b7ab9847619dc1f429b5db9744dfcb153fca4151e",
    "chain/charbonnier/1048579/1.0": "467be57eb19c312d3840bab0be43b5f2703940cacb48a9abf79754bb39ee6822",
    "chain/truncated-tv/1048579/1.0": "8705ea240ccf1e0ac1481893ef049f0074ecefc77405ec8a3ce758ad70b498f8",
    "chain/perona-malik/1048579/1.0": "bfc51ca2440b7a97b6e806d2951a962c2f5dfe744c1f85a09241cbf7ed616704",
    "chain/truncated-bfb/1048579/1.0": "b48eaee0e3f4825e0ab6a054107f80e30b6821bf25e7b5fdb41be3077332d825",
    "chain/truncated-quadratic/1048579/1.0": "640e52873816b94f7e8cd1908d1e46ab946ae30b0b9dd5916985baec4655716b",
    "chain/constant/16/0.5": "18c16be75bc780d8cba75ea8bcc992af96fd8fdb59f873c85aae34be4f5b5a02",
    "chain/charbonnier/16/0.5": "507d2dce244d2441cb822ebe6d39a44fbfbe60847436c264d5ef41b994e8471e",
    "chain/truncated-tv/16/0.5": "a725256eb82158a2d68df14764602b750a7e75684a3bd4925ed3b99470749b19",
    "chain/perona-malik/16/0.5": "51793738950d5b06f80f38f7052c8ee6b5adbb78fc6814e51c71b0bd2c33e8e4",
    "chain/truncated-bfb/16/0.5": "bb76d31a5aeae36603ceb8420d599ec1b1cc742cbf0d9fc78bb16d33d427ead9",
    "chain/truncated-quadratic/16/0.5": "e3c38048d6f36dcde2a84c4dd3c599f1dc3a21c01efd8849727fe575a02f6c2d",
    "chain/constant/100000/0.5": "b37484a5b192425fe13cc4d46cdd5ce5b7e6c3f135ce06d2ece91a9627836c2b",
    "chain/charbonnier/100000/0.5": "bdf788fc488ed28a14ab3e291c8421281c6889c0bd495ca863141833675b8e1a",
    "chain/truncated-tv/100000/0.5": "81c0d8e7315aaa01e39fb815327f28c33070fa953de68988b7562bfb111dadc6",
    "chain/perona-malik/100000/0.5": "eacf2ad3ee317a91778a0fbcef354eb39f5b985d4b2272cfb23fd683de043005",
    "chain/truncated-bfb/100000/0.5": "6578ca4d47c8242f3528671801954001dabfd6a9b5aa9b629d50197c16a24df7",
    "chain/truncated-quadratic/100000/0.5": "097caa4f7c718ee68f2a13212bd6d990b03b8b52afd5eb26b91af950762c7d41",
    "chain/constant/1048579/0.5": "4cdeb2ad825ad273e9b1237cef2703ccedb8871fa34a6884301a320bba6afce3",
    "chain/charbonnier/1048579/0.5": "0b30b9cf399931eec0f5eebc85ad82e3af98417dd069878e6c02b841f1c785a4",
    "chain/truncated-tv/1048579/0.5": "a81780e7e52a8f29a81a89d8862077f42bc3b8d3a904be44c4db4bf37e2a059f",
    "chain/perona-malik/1048579/0.5": "85974bca44fbac9bf395c45b2330e39a944fbd40a03be961197e91e59d180ad5",
    "chain/truncated-bfb/1048579/0.5": "a3c5b5d64012950ae94a026aa7f1f7498fad4f7430778afff44a139cd07b66e4",
    "chain/truncated-quadratic/1048579/0.5": "50f536924296753c2a661cb507d49ad97ae6e41af40f2e4237587f9b2045c9df",
    "euler_lagrange_residual/constant/16/1.0": "73976838a836943ee5204a3fc8c3d0eca648b357dc521c86541d9671cc0737fe",
    "euler_lagrange_residual/charbonnier/16/1.0": "1ab8ef96956308ed9cf3d462ebbaa78ef16616effc75b3e27feb51763d981c97",
    "euler_lagrange_residual/truncated-tv/16/1.0": "9293e9514bad5c72222675b0c486bff256e04335c17bf068af865ab70fc44d13",
    "euler_lagrange_residual/perona-malik/16/1.0": "4c91ef2db192457a403122eed4ba05f3ed5718d325798dbe78ef890af360be66",
    "euler_lagrange_residual/truncated-bfb/16/1.0": "5b810a2805c602f90d5ca557d3f16ceb3af5e8b5d3bde7cb3079591bdcf72773",
    "euler_lagrange_residual/truncated-quadratic/16/1.0": "84ddfdf601d215e3fd7428270c97fae50a0e938061e6b6a1ff5137cb7e816ce9",
    "euler_lagrange_residual/constant/100000/1.0": "12118174c5bfbeeded578c69186732cbaa2300b8d526c5e25adfa925a22b9253",
    "euler_lagrange_residual/charbonnier/100000/1.0": "72ccd7b92b35ce075f5495b3b10b689a3f1f691ca9c95f5e2588411bd7c349f7",
    "euler_lagrange_residual/truncated-tv/100000/1.0": "dac0e7b4f618cf65d7461ca09bc05ffb5304badf13d54bf9ad1b0e3476f2a591",
    "euler_lagrange_residual/perona-malik/100000/1.0": "525dade14fe4b7352ed92284392f63c89811997410102a84fe45f1ef403b9fc6",
    "euler_lagrange_residual/truncated-bfb/100000/1.0": "77917738f5a3bf72b6f509ef867a192d63195c9db3eca6b8a82ea6851314013b",
    "euler_lagrange_residual/truncated-quadratic/100000/1.0": "e5e4e88cdb197410dab6239c7d166db5eeb5fb2a6e2004f24505ab499e9aaa70",
    "euler_lagrange_residual/constant/1048579/1.0": "e5becb2bcd9b7a4ed804a6e9a1196dd14d35100b810080254181e6e3843fc322",
    "euler_lagrange_residual/charbonnier/1048579/1.0": "a4b792402b535cf51b7a3cf7a3fbd47f9967886abeaae438c021b0d1b5fd816b",
    "euler_lagrange_residual/truncated-tv/1048579/1.0": "4dfd503513670ae2b251dff8438fb6e3af7b9e5ac2a8df951b8a0b94d39e12b5",
    "euler_lagrange_residual/perona-malik/1048579/1.0": "bfb8a6c463cd6f375bae00c62b1e818dade1487385bcb9ba1b9609740ab22dc4",
    "euler_lagrange_residual/truncated-bfb/1048579/1.0": "93d9701ec61dcc39f1c23552319f61e5fe8c61f6109148e53806188311bf8145",
    "euler_lagrange_residual/truncated-quadratic/1048579/1.0": "f66a1b25cf54392a9ec41d98d0dbe658489c8106356ec5577f106ea7aef3ef65",
    "euler_lagrange_residual/constant/16/0.5": "2f519b5a6823055a3cfce0d84656224262a46984c0107b56895874889282be65",
    "euler_lagrange_residual/charbonnier/16/0.5": "624b99a5dd38d0636bd6ac0d4b4b5d30518d278cf8b06735767d1d8207b60529",
    "euler_lagrange_residual/truncated-tv/16/0.5": "00d3c1bc50a897da334c57eec1542e6da90624f7e7f3f680a7d4b47ca02b6d61",
    "euler_lagrange_residual/perona-malik/16/0.5": "54e902486c16ae81ea1f47e7a1f0ad3e1318ee1b341464058816f36a57b1f521",
    "euler_lagrange_residual/truncated-bfb/16/0.5": "fc6c19b6aaad0f0524ef69a0c444ce0cc2d5eee3cd1c0cccfe4f8d213a27af0f",
    "euler_lagrange_residual/truncated-quadratic/16/0.5": "01267478e0413ce144ed38f5a33446e7c7fe66f03dbee83d51b69b03e59e4b88",
    "euler_lagrange_residual/constant/100000/0.5": "7bfc20206b7a1389a504a437de26d3e4854fa783b5aceb985f27f7ed8323a99c",
    "euler_lagrange_residual/charbonnier/100000/0.5": "94f5f5b840350d7764e797631e4ec5801605f3a67212df9521bb86411e813819",
    "euler_lagrange_residual/truncated-tv/100000/0.5": "3a58f1db0e3ea21c3e848f993ae0430138f79853e561f5d182433ae5a245b4ab",
    "euler_lagrange_residual/perona-malik/100000/0.5": "e8dbe778ed1d3404842802a60c57f5f922c461a8de70546790c4f345f6464f9f",
    "euler_lagrange_residual/truncated-bfb/100000/0.5": "b892d82550ff2b5462294dd303c2c7400a46ac0a10bbc56190d98341ccd4b2b8",
    "euler_lagrange_residual/truncated-quadratic/100000/0.5": "c7885fa96c4edb1ef7c0aea1cf2387da64daf68ea450d6fa69661aa55edf0d53",
    "euler_lagrange_residual/constant/1048579/0.5": "17017719a42e00b9b81a8182fca134632529b53fbc50f7126c149dde6ec4c684",
    "euler_lagrange_residual/charbonnier/1048579/0.5": "20b43e82a4f2c670ea3838cd75f7c6e34f48fe9ec5955f04607cf144af0d9ab2",
    "euler_lagrange_residual/truncated-tv/1048579/0.5": "cab027b891d9ff800cb69269c87c3ad625ed034861af1058110194efbbcceae0",
    "euler_lagrange_residual/perona-malik/1048579/0.5": "f6e6e664375a6cba695c5bd87655f5d50e078e2ff2af1c9f4eb6824172907b5f",
    "euler_lagrange_residual/truncated-bfb/1048579/0.5": "562a9fbee20b4388c3204d04a2aac900a3a514ccaaeb93a93a5d3e949e6f271d",
    "euler_lagrange_residual/truncated-quadratic/1048579/0.5": "aa6cdbd352813b138a318ca3a133527b0ffd03ca3398666456b924ba5dafa29a",
}


@pytest.mark.parametrize("case", [c for c, _ in cases()])
def test_kernel_bytes(case):
    assert digest(*dict(cases())[case]) == PINNED[case]


if __name__ == "__main__":  # print the table above for the kernels as they are
    for case, args in cases():
        print(f'    "{case}": "{digest(*args)}",')
