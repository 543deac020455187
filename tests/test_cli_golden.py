"""Golden digests of the bytes the command line writes.

Each case runs ``denoise1d`` in process on one fixed input (40 samples
in [0, 1], h = 1, or h = 0.5 where the case says so) and hashes its
exit code, stdout, stderr and every file it writes.  A change meant to keep the CLI's behaviour must keep
every digest; a case that differs is named in the failure.
"""

import contextlib
import hashlib
import io
import os
import shutil

import pytest

from denoise1d import Family
from denoise1d.cli import main

METHODS = ("diffusion", "wavelet", "variational", "resnet")
MODES = ("maxmin", "sign-stable")
ROLES = ("diffusivity", "regulariser", "shrinkage", "activation")
POINTS = "-3.7,-1.5,-0.4,0.001,0.6,1.2,2.9,5.5"

# Gradients of INPUT reach 0.925, so these put every family's kinks
# inside the denoise runs' range.
DENOISE_PARAMS = ["--contrast", "0.5", "--threshold", "0.5"]

# 40 samples k/40, k = 37*i mod 41: every value in [0, 1], no two
# neighbours equal, written as the shortest round-trip decimals.
INPUT = "".join(f"{(37 * i % 41) / 40!r}\n" for i in range(40))

# Inputs other than INPUT, by case name.
SOURCES = {"compare/h-0.5": "# h=0.5\n" + INPUT}

# Stand-ins in a case's argv for the paths of one run.
IN, OUT, OUTDIR = "<in>", "<out>", "<outdir>"


def denoise_cases():
    for method in METHODS:
        for family in Family:
            for mode in MODES:
                yield (f"denoise/{method}/{family.value}/{mode}",
                       ["denoise", "--method", method, "--steps", "8",
                        "--mode", mode, "--family", family.value])
    for family in Family:
        # The jump of truncated-quadratic makes L about 4e4 here.
        T = "0.01" if family is Family.TRUNCATED_QUADRATIC else "0.6"
        for mode in MODES:
            yield (f"denoise/diffusion-time/{family.value}/{mode}",
                   ["denoise", "--method", "diffusion", "--time", T,
                    "--mode", mode, "--family", family.value])


def translate_cases():
    for family in Family:
        for src in ROLES:
            for dst in ROLES:
                yield (f"translate/{family.value}/{src}/{dst}",
                       ["translate", "--family", family.value, "--from-role", src,
                        "--to", dst, f"--at={POINTS}"])


def command_cases():
    # generate, noise, stability and compare; the last stability case is
    # beyond the bound and exits 3, the last compare case exits 1.
    for kind in ("step", "sine", "piecewise", "spike"):
        yield f"generate/{kind}", ["generate", "--kind", kind, "--n", "40", "--out", OUT]
    yield ("generate/piecewise-levels",
           ["generate", "--kind", "piecewise", "--n", "40", "--levels", "-1,2,0.5", "--out", OUT])
    for noise, level in (("gaussian", "--sigma"), ("uniform", "--amplitude")):
        yield (f"noise/{noise}", ["noise", "--input", IN, "--out", OUT, "--noise", noise,
                                  level, "0.1", "--seed", "7"])
    for family, tau in (("perona-malik", "0.25"), ("truncated-tv", "0.25"), ("constant", "0.75")):
        yield (f"stability/{family}/{tau}",
               ["stability", "--input", IN, "--out", OUT, "--family", family, "--tau", tau,
                "--steps", "8"] + DENOISE_PARAMS)
    for family in ("perona-malik", "charbonnier"):
        yield (f"compare/{family}", ["compare", "--input", IN, "--outdir", OUTDIR,
                                     "--family", family, "--steps", "8"] + DENOISE_PARAMS)
    yield "compare/h-0.5", ["compare", "--input", IN, "--outdir", OUTDIR, "--steps", "8"]


def digest(argv, workdir, source=INPUT):
    """SHA-256 of one in-process run: exit code, stdout, stderr, files written."""
    inp = os.path.join(workdir, "in.csv")
    out = os.path.join(workdir, "out.csv")
    with open(inp, "w", encoding="ascii") as fh:
        fh.write(source)
    if argv[0] == "denoise":
        argv = argv + ["--input", inp, "--out", out] + DENOISE_PARAMS
    paths = {IN: inp, OUT: out, OUTDIR: os.path.join(workdir, "out")}
    argv = [paths.get(a, a) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    h = hashlib.sha256(f"exit={code}\n".encode())
    h.update(b"\0stdout\0" + stdout.getvalue().encode())
    h.update(b"\0stderr\0" + stderr.getvalue().encode())
    # Files by their path under workdir, so a written directory is hashed too.
    names = sorted(os.path.relpath(os.path.join(root, f), workdir)
                   for root, _, files in os.walk(workdir) for f in files)
    for name in names:
        if name != "in.csv":
            with open(os.path.join(workdir, name), "rb") as fh:
                h.update(f"\0{name}\0".encode() + fh.read())
    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    return h.hexdigest()


GOLDEN = {
    "denoise/diffusion/constant/maxmin": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/diffusion/constant/sign-stable": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/diffusion/charbonnier/maxmin": "968eba500cc1d2c41a0b9719e7dc4321ce74b3ffc06b07230c9387045d557800",
    "denoise/diffusion/charbonnier/sign-stable": "968eba500cc1d2c41a0b9719e7dc4321ce74b3ffc06b07230c9387045d557800",
    "denoise/diffusion/truncated-tv/maxmin": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/diffusion/truncated-tv/sign-stable": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/diffusion/perona-malik/maxmin": "1a27b5250fc19cea92e53d87710828547871fca70301d08c143d2fcbd09954b9",
    "denoise/diffusion/perona-malik/sign-stable": "1a27b5250fc19cea92e53d87710828547871fca70301d08c143d2fcbd09954b9",
    "denoise/diffusion/truncated-bfb/maxmin": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/diffusion/truncated-bfb/sign-stable": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/diffusion/truncated-quadratic/maxmin": "f9322011ee3bbe2fe0a9974610fb0e2558004ee4167482667cbf3fc3bdb95503",
    "denoise/diffusion/truncated-quadratic/sign-stable": "5d0ba1842c0b533a47344f16e90b207e9c50558b5dd128091192f754686e5d30",
    "denoise/wavelet/constant/maxmin": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/wavelet/constant/sign-stable": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/wavelet/charbonnier/maxmin": "d57267d0cb5758f22d0286b3cf4678fd2828aa30cdc1cf56fc8f7d0b4802089b",
    "denoise/wavelet/charbonnier/sign-stable": "d57267d0cb5758f22d0286b3cf4678fd2828aa30cdc1cf56fc8f7d0b4802089b",
    "denoise/wavelet/truncated-tv/maxmin": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/wavelet/truncated-tv/sign-stable": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/wavelet/perona-malik/maxmin": "fa52debec8c84bd4505ca673d920928e5492efec7ae6ecc34c012abb068889d0",
    "denoise/wavelet/perona-malik/sign-stable": "fa52debec8c84bd4505ca673d920928e5492efec7ae6ecc34c012abb068889d0",
    "denoise/wavelet/truncated-bfb/maxmin": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/wavelet/truncated-bfb/sign-stable": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/wavelet/truncated-quadratic/maxmin": "f9322011ee3bbe2fe0a9974610fb0e2558004ee4167482667cbf3fc3bdb95503",
    "denoise/wavelet/truncated-quadratic/sign-stable": "5d0ba1842c0b533a47344f16e90b207e9c50558b5dd128091192f754686e5d30",
    "denoise/variational/constant/maxmin": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/variational/constant/sign-stable": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/variational/charbonnier/maxmin": "968eba500cc1d2c41a0b9719e7dc4321ce74b3ffc06b07230c9387045d557800",
    "denoise/variational/charbonnier/sign-stable": "968eba500cc1d2c41a0b9719e7dc4321ce74b3ffc06b07230c9387045d557800",
    "denoise/variational/truncated-tv/maxmin": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/variational/truncated-tv/sign-stable": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/variational/perona-malik/maxmin": "1a27b5250fc19cea92e53d87710828547871fca70301d08c143d2fcbd09954b9",
    "denoise/variational/perona-malik/sign-stable": "1a27b5250fc19cea92e53d87710828547871fca70301d08c143d2fcbd09954b9",
    "denoise/variational/truncated-bfb/maxmin": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/variational/truncated-bfb/sign-stable": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/variational/truncated-quadratic/maxmin": "f9322011ee3bbe2fe0a9974610fb0e2558004ee4167482667cbf3fc3bdb95503",
    "denoise/variational/truncated-quadratic/sign-stable": "5d0ba1842c0b533a47344f16e90b207e9c50558b5dd128091192f754686e5d30",
    "denoise/resnet/constant/maxmin": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/resnet/constant/sign-stable": "99a563d9db57594b7058265f0561491345aeb8aa0115053f63ee563054bbbd06",
    "denoise/resnet/charbonnier/maxmin": "968eba500cc1d2c41a0b9719e7dc4321ce74b3ffc06b07230c9387045d557800",
    "denoise/resnet/charbonnier/sign-stable": "968eba500cc1d2c41a0b9719e7dc4321ce74b3ffc06b07230c9387045d557800",
    "denoise/resnet/truncated-tv/maxmin": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/resnet/truncated-tv/sign-stable": "5ebd492100f8a2ca7f158477136cf0661e3d25a3e679735b77ce4eb1d07390c5",
    "denoise/resnet/perona-malik/maxmin": "1a27b5250fc19cea92e53d87710828547871fca70301d08c143d2fcbd09954b9",
    "denoise/resnet/perona-malik/sign-stable": "1a27b5250fc19cea92e53d87710828547871fca70301d08c143d2fcbd09954b9",
    "denoise/resnet/truncated-bfb/maxmin": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/resnet/truncated-bfb/sign-stable": "f7edc50f60785e0eb9875b7f891868e933c0ad5774db9b673b4b69d5ec7f29f7",
    "denoise/resnet/truncated-quadratic/maxmin": "f9322011ee3bbe2fe0a9974610fb0e2558004ee4167482667cbf3fc3bdb95503",
    "denoise/resnet/truncated-quadratic/sign-stable": "5d0ba1842c0b533a47344f16e90b207e9c50558b5dd128091192f754686e5d30",
    "denoise/diffusion-time/constant/maxmin": "53f822b36f27a21cdd7cbf78c836a45b6f6eb306afb57b05df3881ed17181d8a",
    "denoise/diffusion-time/constant/sign-stable": "98a49e6568e363f9dc82301f739ca6f35c30533ce0c7913ee6a20d2a494a60be",
    "denoise/diffusion-time/charbonnier/maxmin": "484689ecec42d4e858c924319d4e3a4c65e00aac5c63a8f2acdab2e2a6cc6922",
    "denoise/diffusion-time/charbonnier/sign-stable": "8b3824fe40256d0fd91d2e77d938afe8a66e574f7d3ce330520d8cc734e183f3",
    "denoise/diffusion-time/truncated-tv/maxmin": "1203c006f82a452d94c91e35e4d021174142b80725cb619f65e8321a44af6a2f",
    "denoise/diffusion-time/truncated-tv/sign-stable": "eabbc7ba0742d426ecd6f821be453407183c5f2af4cfaa5f65a688f4b1346283",
    "denoise/diffusion-time/perona-malik/maxmin": "3d4e9ba22b4631108cbd96fcb93f6aec6342e4302689f33fdb201eba05cceb63",
    "denoise/diffusion-time/perona-malik/sign-stable": "0865f59f4a36c1340c2390389206d3b2c662a6056f2bfa866e7fcdb1863c10de",
    "denoise/diffusion-time/truncated-bfb/maxmin": "9075f99cb2ef30274910d181239da537df411ae6545aeafa9209f862f01341d5",
    "denoise/diffusion-time/truncated-bfb/sign-stable": "ae8cd28cb0f34188a45e8520bd733d62f8fee1a245fd12d3ea3651d10b2d2638",
    "denoise/diffusion-time/truncated-quadratic/maxmin": "c7c036c3e91a3c68616eb50ad09a20e727d9cb38eb7a725b0a20dbc3bfc518bd",
    "denoise/diffusion-time/truncated-quadratic/sign-stable": "772b7f2aba1f3ea56158de2aaeff7f2011db423a7a6318b4d0b3afbb9cd2c610",
    "translate/constant/diffusivity/diffusivity": "d19c5f1bb995856378fddbebd2427a602aa6312a95230d2eae643febc135ca78",
    "translate/constant/diffusivity/regulariser": "16733e5a9120120ef5e25b195e5d5763226a3afb9599134bd5639b86a3551500",
    "translate/constant/diffusivity/shrinkage": "d584c1296aef64fe3de5807829cd4674f88437aa11d6c8ff67b228fb0c7cf384",
    "translate/constant/diffusivity/activation": "a11510167fb5213880ed1da2d51b1e80bef9311e549ebcdfcc5d2cea002f86df",
    "translate/constant/regulariser/diffusivity": "d19c5f1bb995856378fddbebd2427a602aa6312a95230d2eae643febc135ca78",
    "translate/constant/regulariser/regulariser": "40351c959d6e2522cc78bbe84df7fab8cc2245218405dce58009b0d945ecd5c8",
    "translate/constant/regulariser/shrinkage": "b7f2ca75400d44d0f21e5053f6b7ea5ff7c5f56723f39d535f4c0a94843d323b",
    "translate/constant/regulariser/activation": "a11510167fb5213880ed1da2d51b1e80bef9311e549ebcdfcc5d2cea002f86df",
    "translate/constant/shrinkage/diffusivity": "d19c5f1bb995856378fddbebd2427a602aa6312a95230d2eae643febc135ca78",
    "translate/constant/shrinkage/regulariser": "40351c959d6e2522cc78bbe84df7fab8cc2245218405dce58009b0d945ecd5c8",
    "translate/constant/shrinkage/shrinkage": "09d2426a95096201245a79c429862afbe1d37cf8c089ce75e02a3472f8025317",
    "translate/constant/shrinkage/activation": "a11510167fb5213880ed1da2d51b1e80bef9311e549ebcdfcc5d2cea002f86df",
    "translate/constant/activation/diffusivity": "d19c5f1bb995856378fddbebd2427a602aa6312a95230d2eae643febc135ca78",
    "translate/constant/activation/regulariser": "16733e5a9120120ef5e25b195e5d5763226a3afb9599134bd5639b86a3551500",
    "translate/constant/activation/shrinkage": "b7f2ca75400d44d0f21e5053f6b7ea5ff7c5f56723f39d535f4c0a94843d323b",
    "translate/constant/activation/activation": "a11510167fb5213880ed1da2d51b1e80bef9311e549ebcdfcc5d2cea002f86df",
    "translate/charbonnier/diffusivity/diffusivity": "f00dff076e734d247bed886ee3a841854714251e1554ea8443f250d6aeb101d5",
    "translate/charbonnier/diffusivity/regulariser": "c3acda5d6b2ac0eb2108e94b04f9e38b9149bd63b33544a57f71ce0de8bdf3c4",
    "translate/charbonnier/diffusivity/shrinkage": "1d72d4176ddf6a024eb4e80ce23d9cbfeb1d200d8609d488019d233744643c09",
    "translate/charbonnier/diffusivity/activation": "c116cfd25bd7e933fd398fcebf532b9d019caea0396d2cc082297fcd64a66180",
    "translate/charbonnier/regulariser/diffusivity": "65a6a7c3dedbabf712c9d0dda6e67aeffc1c78bc25415facabd19515fe6b7f77",
    "translate/charbonnier/regulariser/regulariser": "e79c99c5971998c170bc3d5d7f476d919d404c6bc12e928e77619d59a8e13268",
    "translate/charbonnier/regulariser/shrinkage": "3218c41c54a40a7321b910f473350e82e786d21d3bf955d3a6378c9a967a2aa4",
    "translate/charbonnier/regulariser/activation": "ff0189d439452e2a3854b5519ebd5824a78a5f78af650b908a31a02b6eb0d415",
    "translate/charbonnier/shrinkage/diffusivity": "30f604b57227a1d0308575b284bad6a01c3722b2fdfc3ba83f5dd74ca8ca6a28",
    "translate/charbonnier/shrinkage/regulariser": "cf8d2691d96d489f6eeb87039871a0aec02e87eb2cc99d6ec46521632f860e08",
    "translate/charbonnier/shrinkage/shrinkage": "1d72d4176ddf6a024eb4e80ce23d9cbfeb1d200d8609d488019d233744643c09",
    "translate/charbonnier/shrinkage/activation": "0bd77eaedde303bc22cf3b4f70e055584f5f883e170d6409e5d692a8e6cdccad",
    "translate/charbonnier/activation/diffusivity": "65a6a7c3dedbabf712c9d0dda6e67aeffc1c78bc25415facabd19515fe6b7f77",
    "translate/charbonnier/activation/regulariser": "82a43974e3051c79fb499fdd75f26dc59453e21d34220baa5f58b1a79f6b617d",
    "translate/charbonnier/activation/shrinkage": "3218c41c54a40a7321b910f473350e82e786d21d3bf955d3a6378c9a967a2aa4",
    "translate/charbonnier/activation/activation": "ff0189d439452e2a3854b5519ebd5824a78a5f78af650b908a31a02b6eb0d415",
    "translate/truncated-tv/diffusivity/diffusivity": "bc3c53b344a06858989c56ba7c78c59a50ee36764a747370c3f2788a12894749",
    "translate/truncated-tv/diffusivity/regulariser": "79b0398e3083dea43bcfc4aa2f5c3eefac234561ce3877b001d77381aec4d864",
    "translate/truncated-tv/diffusivity/shrinkage": "92e6ab2d410991cefb736331173bfef22ff6f320df07553cf5b6d352a68ca592",
    "translate/truncated-tv/diffusivity/activation": "3ed6cbdc6d6b8cf10192be016958c3bfc360881697211d0b7475f91d322d36c3",
    "translate/truncated-tv/regulariser/diffusivity": "bc3c53b344a06858989c56ba7c78c59a50ee36764a747370c3f2788a12894749",
    "translate/truncated-tv/regulariser/regulariser": "3b2968feb761879d8697305638241fcaa230628ae73f5a2787e72b0844cfeacc",
    "translate/truncated-tv/regulariser/shrinkage": "000bf9401747b44aed38a6ff9d369006ff8f85470b1f7b78cb52dd3a8d08b0e8",
    "translate/truncated-tv/regulariser/activation": "3ed6cbdc6d6b8cf10192be016958c3bfc360881697211d0b7475f91d322d36c3",
    "translate/truncated-tv/shrinkage/diffusivity": "84abe77cf8e3846539c7083964909a5acb2ca6edb9899c0598d62e6a0d3ce759",
    "translate/truncated-tv/shrinkage/regulariser": "ed1efb5c108400cb0f8cdb3ca1891c298b6fa78c967565d7bcbe51d6a3ca5678",
    "translate/truncated-tv/shrinkage/shrinkage": "0afc0c6daa9f393e516be355876268f7dafee66d7d8b5112565068eedbedb90a",
    "translate/truncated-tv/shrinkage/activation": "4c85bf2f28955863682a074c5c7fe4fb8523dffa2fec5e547b4d8d2253ce2ff0",
    "translate/truncated-tv/activation/diffusivity": "bc3c53b344a06858989c56ba7c78c59a50ee36764a747370c3f2788a12894749",
    "translate/truncated-tv/activation/regulariser": "79b0398e3083dea43bcfc4aa2f5c3eefac234561ce3877b001d77381aec4d864",
    "translate/truncated-tv/activation/shrinkage": "000bf9401747b44aed38a6ff9d369006ff8f85470b1f7b78cb52dd3a8d08b0e8",
    "translate/truncated-tv/activation/activation": "3ed6cbdc6d6b8cf10192be016958c3bfc360881697211d0b7475f91d322d36c3",
    "translate/perona-malik/diffusivity/diffusivity": "65ea56518e7768d67d6658c1fdf295d2c2a010fa7a864de51c0cee75f0e4aaba",
    "translate/perona-malik/diffusivity/regulariser": "23e439a28128f4a37aea8f9b07896175b7f72122a39fa2c521939ace80aef496",
    "translate/perona-malik/diffusivity/shrinkage": "2e10d8f609b5ca9bfe09586169013289519d518d7c40bcefdacdba2729950775",
    "translate/perona-malik/diffusivity/activation": "514b5ed393cf45027426bd4d736d89b9bac10fc21a6ef7aa5af89ab1c8492e91",
    "translate/perona-malik/regulariser/diffusivity": "65ea56518e7768d67d6658c1fdf295d2c2a010fa7a864de51c0cee75f0e4aaba",
    "translate/perona-malik/regulariser/regulariser": "7b564caa2ad46485d7304862270d5f64afde6ca6ae4ac429749001a3497735d4",
    "translate/perona-malik/regulariser/shrinkage": "4fde6c280c1ea6c4db0174314642fab640138c37493b55b80ff14ce6a458ea0b",
    "translate/perona-malik/regulariser/activation": "514b5ed393cf45027426bd4d736d89b9bac10fc21a6ef7aa5af89ab1c8492e91",
    "translate/perona-malik/shrinkage/diffusivity": "870ff69a1b75ae9293ab1318dc4f963a5cab66d9eab4ecde56c35fc57e1aedb9",
    "translate/perona-malik/shrinkage/regulariser": "264d62983d55a031a9b1b73c91277015de873590880ecb6495fa8db0eacea47e",
    "translate/perona-malik/shrinkage/shrinkage": "6d7b0fcd5c4329b4e65776de1e293c5fbb5e1d896756862db945a6d6a6fce6b7",
    "translate/perona-malik/shrinkage/activation": "2f168a07da22e98f1e4a2bab6d350c0477d01d824889864ead165ed92f06378e",
    "translate/perona-malik/activation/diffusivity": "65ea56518e7768d67d6658c1fdf295d2c2a010fa7a864de51c0cee75f0e4aaba",
    "translate/perona-malik/activation/regulariser": "23e439a28128f4a37aea8f9b07896175b7f72122a39fa2c521939ace80aef496",
    "translate/perona-malik/activation/shrinkage": "4fde6c280c1ea6c4db0174314642fab640138c37493b55b80ff14ce6a458ea0b",
    "translate/perona-malik/activation/activation": "514b5ed393cf45027426bd4d736d89b9bac10fc21a6ef7aa5af89ab1c8492e91",
    "translate/truncated-bfb/diffusivity/diffusivity": "b4e653318df4593e7beee05d2f6f2e5c45302126e4d148fd168035db11834fb5",
    "translate/truncated-bfb/diffusivity/regulariser": "43e13a0866c80b14580e97ffca6dfd72606c6acefda77c804570886c0ed2ac6d",
    "translate/truncated-bfb/diffusivity/shrinkage": "9f88cd2fcd6f1db9d605f82e82994c2323e82c86fbb04cdb1876a6ac7563561e",
    "translate/truncated-bfb/diffusivity/activation": "47b8704cd58ba28632aabbad4d03da2d6f68a6337759b1633bfa9418de9535d2",
    "translate/truncated-bfb/regulariser/diffusivity": "46db313cb34bf544aee21e992107a89d5abf89327676da5b8233695869dacf09",
    "translate/truncated-bfb/regulariser/regulariser": "982797ea65e9d48b69cd21e0a7b43179a74b3ecceaa720c763eab98cbb831a1d",
    "translate/truncated-bfb/regulariser/shrinkage": "cabf1baddc291654fa6029318f02b04e8f275344dd810d8b122efdc30510bb16",
    "translate/truncated-bfb/regulariser/activation": "706aad4159d24fddc52fdc3961fe7b54b0b3217ac6d3d08680e8d651ae6d1645",
    "translate/truncated-bfb/shrinkage/diffusivity": "b12af6b0447927a77affb329fded2534f32baf218ed8ae5a54b2fb662be5f4ef",
    "translate/truncated-bfb/shrinkage/regulariser": "89653772732b5d5ef7cb1df933856529968d0ccceea26c2af95de464aa4110ce",
    "translate/truncated-bfb/shrinkage/shrinkage": "aa3ef277a177e1bcfa753f4f2c2b8b529d7352acfb36824912b2702789dabba3",
    "translate/truncated-bfb/shrinkage/activation": "66cc0271a83b12724fb392b1a10ce40e43ae0f021e95d7bab77397417b1482a9",
    "translate/truncated-bfb/activation/diffusivity": "46db313cb34bf544aee21e992107a89d5abf89327676da5b8233695869dacf09",
    "translate/truncated-bfb/activation/regulariser": "43e13a0866c80b14580e97ffca6dfd72606c6acefda77c804570886c0ed2ac6d",
    "translate/truncated-bfb/activation/shrinkage": "cabf1baddc291654fa6029318f02b04e8f275344dd810d8b122efdc30510bb16",
    "translate/truncated-bfb/activation/activation": "706aad4159d24fddc52fdc3961fe7b54b0b3217ac6d3d08680e8d651ae6d1645",
    "translate/truncated-quadratic/diffusivity/diffusivity": "856b5bbb3c3924b69b2d16a8198b54bbf7b3794bd4431e55114af6d6b1ff040b",
    "translate/truncated-quadratic/diffusivity/regulariser": "45f680991c9ba17c754610caa2257aefc613f9a8a31026a9e556c31afa017dc1",
    "translate/truncated-quadratic/diffusivity/shrinkage": "89d667665ae86ec8a59857b8c79463347af19f0b263492459b70995ac5200232",
    "translate/truncated-quadratic/diffusivity/activation": "9ffa45ac8d0146e7e01d991af559a980f16d8c12dce34cc28e1af8480dc945b3",
    "translate/truncated-quadratic/regulariser/diffusivity": "7c1dcf23bce9cbaea91eaee3faebcc96d776c7d73c201a4b6a6531299f20bbcf",
    "translate/truncated-quadratic/regulariser/regulariser": "3d25f52a858af24b16b9a25c2933461e4f5c62c4b78ebfb104e7905698bca17d",
    "translate/truncated-quadratic/regulariser/shrinkage": "488c945488f861553f7163aebb3ed7ae988bc040a03174698696ee5cfc18c2e7",
    "translate/truncated-quadratic/regulariser/activation": "06177d9ddd4df4fa6c8160259582b8fc7ec2027e4e7121b277604775937b47ec",
    "translate/truncated-quadratic/shrinkage/diffusivity": "575e35458d5700343b7b5f9c3e3d6ce1dc0b40afb2fa66487da2a4330a069b2c",
    "translate/truncated-quadratic/shrinkage/regulariser": "c0d5b818f181000aec7578c9bec1811c35ebb113c03b2436c78e7727ff55eef4",
    "translate/truncated-quadratic/shrinkage/shrinkage": "b88f7ef2bac36819a8a2563faf32dda746c7e5d3fa546aa6a59dbe61861356eb",
    "translate/truncated-quadratic/shrinkage/activation": "f20b1f26bc65119ad1afd8db50da61f410f5b5c1fee13aa053bea1f41e71fc1a",
    "translate/truncated-quadratic/activation/diffusivity": "7c1dcf23bce9cbaea91eaee3faebcc96d776c7d73c201a4b6a6531299f20bbcf",
    "translate/truncated-quadratic/activation/regulariser": "45f680991c9ba17c754610caa2257aefc613f9a8a31026a9e556c31afa017dc1",
    "translate/truncated-quadratic/activation/shrinkage": "488c945488f861553f7163aebb3ed7ae988bc040a03174698696ee5cfc18c2e7",
    "translate/truncated-quadratic/activation/activation": "06177d9ddd4df4fa6c8160259582b8fc7ec2027e4e7121b277604775937b47ec",
    "generate/step": "73e12e1f483a78aa583c69f095972d427144ba8c1fa12ed4e98c9fc55a7b78e2",
    "generate/sine": "fe9afce2c3ef98325a67c6b734535490e119ed7a07d59d82caf8e248d9ae5e5e",
    "generate/piecewise": "577c2bec1ff0748842c0236e0bb9ebe10f12b6e63d311ac404a94acf5a9c2a3c",
    "generate/spike": "9c0cb4e03975e38bc5c965a3e79fa52f69792f2b5c30c56c3a50cb415630bae2",
    "generate/piecewise-levels": "7414e2f6d48f795087fe49a73f9919214cb1b43826f3f63a08c80880df8ab635",
    "noise/gaussian": "f91f6f459772f370423fc6cbabe383534faa9f34aacba2043ebb73c61c50060d",
    "noise/uniform": "c917049af7460cedf4f63108317f997f4899341f4377f0b488df68c46f87d11e",
    "stability/perona-malik/0.25": "7e197e72980b172d1f7da9ef62b79c9566a0274c6a6a02536df39fb5b2528963",
    "stability/truncated-tv/0.25": "a469c0af8401da5cbd5aab8f82a0ef0c2cd8fe7e595b108ac078006b5bf46c6b",
    "stability/constant/0.75": "3bc8e1facbe2f964edd4dfc6fca80992f65498f5dd969c5758f2a246c7e03340",
    "compare/perona-malik": "08e3a0a60c5862109aa5d0492a5eee2748571717c7966f380f6f00bc081951cd",
    "compare/charbonnier": "f038272c53e613d5882d813aa289c14f712b220e58fedf67145a178e8d8bade4",
    "compare/h-0.5": "266feef256b45364d26e479f44b9e913c49e1d4030d173377c764ddbff3d6885",
}


@pytest.mark.parametrize("cases", (denoise_cases, translate_cases, command_cases))
def test_cli_bytes_match_the_golden_digests(tmp_path, cases):
    got = {name: digest(argv, str(tmp_path), SOURCES.get(name, INPUT))
           for name, argv in cases()}
    assert {k: v for k, v in got.items() if GOLDEN.get(k) != v} == {}
