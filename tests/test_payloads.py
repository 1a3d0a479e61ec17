"""Golden payloads: the seed-1 artifacts of the nine radial experiments of
the benchmark and its ``yamabe n=20`` run, plus the default ``flat`` and
``round`` curvature runs and the collapse runs of the other bundle models,
carry pinned sha256 values.

Each summary's ``sha256`` (of its results) and each CSV's ``# sha256=``
header (of its table) must repeat exactly, so a change that moves any bit of
a payload fails here and has to say so.  The bits depend on the platform's
libm (exp, pow, sin and cos round per library); the pins were recorded with
glibc on x86-64, Python 3.11 and numpy 2.4.
"""

import json

from collapselab.cli import ExperimentConfig, run
from collapselab.cutoff import unit_cap

RUNS = (
    ("curvature", {"preset": "eguchi-hanson"}),
    ("curvature", {"preset": "burns"}),
    ("decay", {"base": "eguchi-hanson"}),
    ("decay", {"base": "burns"}),
    ("glue", {"blowups": 0}),
    ("glue", {"blowups": 2}),
    ("collapse", {}),
    ("classify", {}),
    ("charclass", {}),
    ("curvature", {"preset": "flat"}),
    ("curvature", {"preset": "round"}),
    ("collapse", {"bundle": "twisted"}),
    ("collapse", {"bundle": "nilmanifold"}),
    ("glue", {"bundle": "nilmanifold", "fiber_sums": 0}),
    ("yamabe", {"n": 20}),
)

GOLDEN = {
    "burns.json": "1f81112176036512417f85163654d99fe98ca528d92dfbf52eda1871e5754259",
    "burns_profile.csv": "656a8217e4502405902e8767697c337ac0537184670854c3b60d22c8ea6f64f6",
    "charclass.json": "cedcfe3e579283cd864002b641a84cb57588364b98c805a64be4d17589ca07a7",
    "charclass_wplus_sweep.csv": "11b03605161eebae966be9e98b31eec937ada9709b5222cdb5de7fea12622d29",
    "classify.json": "fd64d3a376c50935a6c624df3470d395f609580b1c79718dfc5b16edd4ec7ceb",
    "classify_table.csv": "2ae5bbf3065c9c6f741af85c8a8af8217993480d1e028c41f1336ff1e072c859",
    "collapse_nilmanifold.json": "655293830868c4dee5f2d328df7aaba1ea7e00a117a790572a1f8300a593a85e",
    "collapse_nilmanifold_family.csv":
        "64844e76d12fc532a0abeab51374a31f15a701677ee34650fd062897b751485f",
    "collapse_trivial.json": "7d9a5bdba06bbfc40b60d8db3928597e204044a3b6020fb963e4ff20e65fc90a",
    "collapse_trivial_family.csv": "ce39995a3c2874e644faa8daf63d0b22123dd8be07927eabce1178b51b0f7b93",
    "collapse_twisted.json": "8a473804d29c604c3a8e30358202b9effaa5f2a1740a03796906d949857ca3be",
    "collapse_twisted_family.csv":
        "ce39995a3c2874e644faa8daf63d0b22123dd8be07927eabce1178b51b0f7b93",
    "decay_burns_d0.5.json": "1d20d4a23dc0ef42fccfe5aa29e6bafafedc5b58cca76b47ac564d2a8931a3e1",
    "decay_burns_d0.5_sweep.csv":
        "6ed08ba91562d74b3d3f3f10d62879dd67edab927891185a1b9fc927571ec51b",
    "decay_eguchi-hanson_d0.5.json":
        "2c78472e623bce3089e1cf3d46dd48f6d9c79bae2b6d3cda7fefaa3c5bdaa35b",
    "decay_eguchi-hanson_d0.5_sweep.csv":
        "e57c63d5e882ee3eea9c9442eaa4dc2b0aa2e9c093bfb02361f85e550fd7fead",
    "eguchi-hanson_a1.json": "536b798831c6c5baa74c34e54abf5deff1648026889635ec230f3ae261af4e3d",
    "eguchi-hanson_a1_profile.csv":
        "a9dab7053f2bdf058f0e01dbc89c75fd6b98cbc35ede4ad8919230e4bd2e3f7b",
    "flat.json": "daff9470c9b15f878553ffc565efcc94affb7cf5a5ade6ff352ab74f46223981",
    "flat_profile.csv": "1b0df9cbdde7947ec7b07d76e4a69730ba9c84432064d685e5c1e558e58f8378",
    "glue_nilmanifold_k0_l0.json": "f9d2d4f80f113d8773890dcb0ab266232015b1a49177bfc9253987777e4e6bc4",
    "glue_nilmanifold_k0_l0_certificate.csv":
        "060f1683a87ed97eb5ba57eb2fb48a3e3e0e51c7bf19a7c97e567a98a8f781ab",
    "glue_trivial_k1_l0.json": "7d0789edcfabf5e1cd883b9208f51080a7e207a5c042ff368412b2f88fa04654",
    "glue_trivial_k1_l0_certificate.csv":
        "e80841e623bcd94939216d9853e7629f41b0fc7a825cd93507fba653e467af3f",
    "glue_trivial_k1_l2.json": "8b24f2009406b0dd083aba77faae502642eb99a35f89f02798e6c399f7d21bca",
    "glue_trivial_k1_l2_certificate.csv":
        "da4bc8ce0e3100414d8fa91028d63ec1ba22e19b424f47768b2f5180c788c881",
    "round.json": "38b9c44b7a83b8249ffcb1b455e4df64c7bebd54fde7c485661ab6e2b58f50c5",
    "round_profile.csv": "ce90eb530eb6ad99957a76f42f22085bef576b9a839aa77700183f2ad0728260",
    "yamabe_n20.json": "606451f3a61542dd6d185e6195a0640821692f66c1ad49dab9f16f4b7d3ff15e",
    "yamabe_n20_descent.csv": "db1119de7e3da1acce69578797af65043fcfbe66a0f71e7d94b7ce71c5438b6c",
}


def _payload_sha256(path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["sha256"]
    (line,) = [ln for ln in text.splitlines() if ln.startswith("# sha256=")]
    return line.split("=", 1)[1]


def test_seed_1_payloads_are_golden(tmp_path):
    unit_cap.cache_clear()
    hashes = {}
    for experiment, params in RUNS:
        for path in run(ExperimentConfig(experiment, dict(params), str(tmp_path), 1)):
            if not path.name.endswith(".meta.json"):
                hashes[path.name] = _payload_sha256(path)
    assert hashes == GOLDEN
