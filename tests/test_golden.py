"""Golden trace: SHA-256 of every per-trial output file on tiny configs.

One case per variant (labels at the clients) plus one run per server
topology with the labels held at the server, the sequential one streaming,
and one deep case: two hidden layers, heavy-ball momentum with weight decay
and two local epochs of per-batch teacher EMA.
A change that means to keep behaviour must keep these digests; a change
that moves floats on purpose re-records them and says why.

The config echo (config_resolved.ini) is pinned too: for each case, with
the temporary output directory replaced by a fixed token, and for the
all-defaults config and configs/desk_scale.ini.
"""

import hashlib
from pathlib import Path

import pytest

from fedssl.config import parse_config, parse_config_text, resolved_ini
from fedssl.runner import run_experiment

DESK_INI = Path(__file__).resolve().parents[1] / "configs" / "desk_scale.ini"

BASE = """
[dataset]
num_classes = 3
dim = 4
train_per_class = 40
eval_per_class = 10
spread = 0.4
[shard]
num_clients = 3
dirichlet_alpha = {alpha}
labeled_per_client = 3
streaming_steps = {streaming}
server_holds_labels = {server_labels}
[variant]
kind = {kind}
ema_alpha = 0.9
[training]
rounds = 5
participation_rate = 1.0
topology = {topology}
server_epochs = 2
hidden_dims = {hidden}
unlabeled_batch_size = 16
labeled_batch_size = 4
learning_rate = 0.1
tau = 0.6
lambda_u = 2.0
mu = 0.001
{extra}
[augment]
weak_noise_sigma = 0.05
weak_shift_fraction = 0.02
strong_noise_sigma = 0.15
strong_mask_prob = 0.2
[run]
trials = 1
seed = 7
output = {output}
"""

MODEL = dict(hidden="8", extra="")
CLIENT_LABELS = dict(MODEL, alpha=10.0, streaming=0, server_labels="false",
                     topology="labels_at_client")
CASES = {
    "fedprox_fixmatch": dict(CLIENT_LABELS, kind="fedprox_fixmatch"),
    "ts_server_ema": dict(CLIENT_LABELS, kind="ts_server_ema"),
    "ts_client_ema": dict(CLIENT_LABELS, kind="ts_client_ema"),
    "fedswitch": dict(CLIENT_LABELS, kind="fedswitch"),
    "deep_momentum": dict(
        CLIENT_LABELS, kind="ts_client_ema", hidden="8,6",
        extra="momentum = 0.9\nweight_decay = 0.0001\nlocal_epochs = 2"),
    "server_sequential_streaming": dict(
        MODEL, alpha=0.3, streaming=3, server_labels="true",
        topology="labels_at_server_sequential", kind="ts_server_ema"),
    "server_parallel": dict(
        MODEL, alpha=0.3, streaming=0, server_labels="true",
        topology="labels_at_server_parallel", kind="fedswitch"),
}

FILES = ("rounds.csv", "transmissions.csv", "kl_ratio.csv", "summary.txt")

GOLDEN = {
    "deep_momentum": {
        "rounds.csv": "6890eaf67bd54f4291318283d4717f5b1a8af9cc4c7ee9e2f4c48e374b418395",
        "transmissions.csv": "d31693bdb85921f6e69bc1e17281eff352776738abdb66a5c5983f4f142f4e1c",
        "kl_ratio.csv": "bcdd1e55464bb821a00c834e5664f21f86ddd72e5ecd93dcdb7349ae026f4af2",
        "summary.txt": "9755053c6cb99b792996f15ea27b353fcb9b5a490544c36fe9def835a757abb3",
        "config_resolved.ini": "a40e993ee988c1f7eed7af3bc36230e67b04e5ccd0eead6cfa3504707546d52e",
    },
    "fedprox_fixmatch": {
        "rounds.csv": "a416bad83159dc53aa525de4348e63962a2baca6aa7870459ec9ef001cb2a638",
        "transmissions.csv": "f5c2a5b4258b3d47cfe9ca72282e30484ebdfac60b815c17f551c914ef1eec58",
        "kl_ratio.csv": "ec657da753ff17540c61132efcd5cd7e530d73e5b144e3b525daa14cf019e446",
        "summary.txt": "71362bd7f578c8438e01e0b040bd01814b324b5ebe19d48592e7c09f068b00b3",
        "config_resolved.ini": "1abd821cdd45a8ffc55b797f67a8a83326b1c8f9b1a2852312180f04543c226e",
    },
    "fedswitch": {
        "rounds.csv": "6e86c2fb7b7a48045ddb730e57ec27ddcbcfef8a63fd586c4aaf7eee8613e981",
        "transmissions.csv": "04debd9c51c21bbed1aae5ce50d800ae933ecb908de8ce0154348d056d5c4914",
        "kl_ratio.csv": "56b2102245fee161e0483e3cdaac2b818d4a029f109d0d6df7c6e14fb965b5aa",
        "summary.txt": "ae36efb9f868c19d3569d3e547a62c4661f964ad4c05e1166d18750652451be4",
        "config_resolved.ini": "ac83fafb522c465683fb231ede6a34f8726940d020ed45f27f3f5700ceff4876",
    },
    "server_parallel": {
        "rounds.csv": "8054782c2f11a9b753db013e1b96d9cdcb649cf9bf27f00447f20e2b78e32cf9",
        "transmissions.csv": "04debd9c51c21bbed1aae5ce50d800ae933ecb908de8ce0154348d056d5c4914",
        "kl_ratio.csv": "cf59a2ebc752ab15cd817570cf99fdd083e097032207c56d656cf3905e3d59fe",
        "summary.txt": "8e9b3a800bfe00dc64bb2f8f23c3571e4a326725accedc507898df359f2073e4",
        "config_resolved.ini": "ae06ce375cf4228a14ec8c1d9efba5f836a60056d1312e695868a7aac3fcb52e",
    },
    "server_sequential_streaming": {
        "rounds.csv": "9d61be8a4f97920806b59d6023383efefb2cac11d246da6dee25554fbd1c250d",
        "transmissions.csv": "960df636e410d3f0788b0011eb881acdd6ca484cfd878252676a4854ca0b9abe",
        "kl_ratio.csv": "129fc79abd7c8ffd42a90b95eabf554b812bfa70fd9a29af47423a54f9497b90",
        "summary.txt": "c775e03e59445973858769d4740f0877c8a658170150a6b4675230b3c69765a7",
        "config_resolved.ini": "6f0cc1d7f6305d49eb89a6d7a5e202102e23dfad5f3d0e4ef071be5abe9963f2",
    },
    "ts_client_ema": {
        "rounds.csv": "c44d25a7f3cd1957fc33537d4832a518f7d7de3fc8c7399f2ec7a734c6e6fe17",
        "transmissions.csv": "b55965e8e4703a8dc1cb2dd62d2538c815d8463bd7e8d2d70f5e3b413f5abd8a",
        "kl_ratio.csv": "5c7bc34a5a8a571dadd38553af01616a7bc4f9394e20bf5066fdf8beb90a3e92",
        "summary.txt": "2d228c19d0aa6b81b568dc01ca88a12c92d96bae65d24471cdcf20d16acbd42c",
        "config_resolved.ini": "06b1405be228b0fc0576d035043a117884201010da2020dc6acbf1c8139abb5e",
    },
    "ts_server_ema": {
        "rounds.csv": "0369ec0ad168ca57988a577e33ebc68e81dfa2c8a3a939e77f2ee8cde9244696",
        "transmissions.csv": "960df636e410d3f0788b0011eb881acdd6ca484cfd878252676a4854ca0b9abe",
        "kl_ratio.csv": "8e32561b583d89de653d1bdf59de57b7f5c33ce4172388343be32a1eaea2f19c",
        "summary.txt": "4269cb7f06af2b8adfc4b5234f3e801dd66a8a5758427696042c2df20f966d25",
        "config_resolved.ini": "1f2ac0d00e926a3c9a5955d5dc2f7ef5608faa36af6d1fdcc49b4eeb081f77cf",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trace(tmp_path, case):
    out = tmp_path / case
    run_experiment(parse_config_text(BASE.format(output=out, **CASES[case])))
    trial = out / "trial_000"
    digests = {
        name: hashlib.sha256((trial / name).read_bytes()).hexdigest() for name in FILES
    }
    echo = (out / "config_resolved.ini").read_text(encoding="utf-8")
    digests["config_resolved.ini"] = _sha(echo.replace(str(out), "OUT"))
    assert digests == GOLDEN[case]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


ECHO_GOLDEN = {
    "defaults": "d1b935ad39092952649331326ef50e65cbc9bf854647048cbf2ab7a1a59dc4c3",
    "desk_scale": "56dd1093faaf6b6e08156502619727bdf0ba828c2467213555b8a6cfb41ed273",
}


def test_golden_config_echo():
    echoes = {
        "defaults": resolved_ini(parse_config_text("")),
        "desk_scale": resolved_ini(parse_config(DESK_INI)),
    }
    assert {name: _sha(text) for name, text in echoes.items()} == ECHO_GOLDEN
