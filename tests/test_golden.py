"""Byte-for-byte pins on what the CLI prints and writes.

One pipeline of commands runs through ``mdpgeo.cli.main`` in a temporary
directory; every command's stdout and every file it writes is reduced to its
sha256 and compared against the digests below.  The digests were taken from
the implementation before the grouped-rows greedy kernel and the spliced
model writer replaced the per-state loops, and the ``normalize``/``gamma-eff``
pins on the dense and sparse models from the implementation that rebuilt the
model after every transform step, and the ``twostate`` pins from the
implementation that evaluated and improved one ``Policy`` object at a time, so any change to a printed or written byte,
including float formatting and tie-breaking, fails here.  The 1000-state sparse
``generate`` pins and the 60-state dense ``generate``/``normalize`` pins (full rows
across block boundaries) come from the writer that encoded one row at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from mdpgeo.cli import main, mdp_to_json
from mdpgeo.fixtures import m2, m2_mix

GOLDEN = {
    "alpha.csv": "cf7a0cb9a74acf9919cccf57cf56ba45b363066ad69b2785a6cb1a7c5387795d",
    "certify.exit": 0,
    "certify.stdout": "123a16b46974b7d81f685124f4a3a3bc4b6e2248476047d24b79eb5977a5865f",
    "certify_alpha.exit": 0,
    "certify_alpha.stdout": "10910985a3b404ad90b6141e5bd08e4933a4e08ef740faccc3c8a25218402bec",
    "dense.json": "ab2c761ef7147ab37390000509f6cff8f3c5163ec49651d08a665c2361fda254",
    "dense_60.json": "c38273734fd11aefe55c2cef6cc101bce808814fb290fd65b37adbb8f1197856",
    "dense_60_normalized.json": "97cfcebe2d082089ab688de260eda6b3c33f42f4c4f3eec8f26466d6b9cce326",
    "dense_normalized.json": "82e15ddf9fb604e9ae3d6572939f2162833b5581ab48468c70f54ef1218a4dcc",
    "gamma_eff.exit": 0,
    "gamma_eff.stdout": "7bcd1fa41e761a146c795ad5b6140eb691a038af41395e07d9849b534dd0e108",
    "gamma_eff_dense.exit": 0,
    "gamma_eff_dense.stdout": "64eb5d7b15574848fef8999bbb51c178bd88696ccaa4aee55dc99df507cbcb89",
    "gamma_eff_m2.exit": 0,
    "gamma_eff_m2.stdout": "3736b1cceacfdb7aa278ece9bbd44eb2e808f1fa55653d7758490c2ac46cff77",
    "gamma_eff_sparse.exit": 0,
    "gamma_eff_sparse.stdout": "769cd042818360ad74b2ae4b00350be28d77d17bf77b01ec10f116b7498a420e",
    "generate_dense.exit": 0,
    "generate_dense.stdout": "4b666b4cd9cacf05a7ebb342daed559760e52f2fd56d2ceeb8f42695a56b8308",
    "generate_dense_60.exit": 0,
    "generate_dense_60.stdout": "87379cec0c9c58ee8a1b76646e2012e118adc9e20ac7378f8e3a4495906a25d9",
    "generate_sparse.exit": 0,
    "generate_sparse.stdout": "41d355433e5599725155aef02be9543b74d97ac13a7e25bf1bf2ae44b4f33246",
    "generate_sparse_1000.exit": 0,
    "generate_sparse_1000.stdout": "37961f5be1887223b73519c7da83e622c7f5afff1ba9d8ff883510c760129118",
    "generate_twostate.exit": 0,
    "generate_twostate.stdout": "a82117974fdecdc296bff24947be0ea1c5d90120e076de08dbb301f7d87412f6",
    "m2_mix.json": "cb1949e7e73fc0754aedb1af05f99b17ac4ad08d5d796f41b185f8a0ad772b58",
    "m2_mix_normalized.json": "0de45a58fb4221341feab9600c734b6c32b472ce2b585465f359b2ea51c7df4d",
    "normalize.exit": 0,
    "normalize.stdout": "5606e23f55af7f714949a53ab713b837baa89605362c45c064713b2d157d81cb",
    "normalize_dense.exit": 0,
    "normalize_dense.stdout": "f1db4dc915613a4e51b9cdf70a9d03de05aa6ac5cfc7b3af279f67c4cdb963bd",
    "normalize_dense_60.exit": 0,
    "normalize_dense_60.stdout": "74babcf74c298896d3e229439dcbfbadbe296f4588f48c64c364137f44dd728d",
    "normalize_sparse.exit": 0,
    "normalize_sparse.stdout": "f3778fcb5fd4ca3dafceaa69ac27021c288787789f6072246f5fc93cf8574d30",
    "normalized.csv": "b55a4853bb0ea910bce837e79aee8ae499b6e1716277305d309e47b3de34500b",
    "solve_pi_dense.exit": 0,
    "solve_pi_dense.stdout": "fb0f3d40bfc4283fd6ac44b7364a5fce66288a35d78b4b590b8c7c39b72e5159",
    "solve_pi_first.exit": 0,
    "solve_pi_first.stdout": "ddd9b8b5c6b4d06ec607fb78491c27eda89dbe168f356cfa5aa0704ce7130530",
    "solve_pi_maxreward.exit": 0,
    "solve_pi_maxreward.stdout": "c51bbaff947223679f0a4b162a6ab225a2d46b669c31bcde0b37b98e00ed1a87",
    "solve_vi.exit": 0,
    "solve_vi.stdout": "e425e38c9d6fc0334798b35044c0c9c484fca208463dbf3a7fb8115faf10f81c",
    "solve_vi_alpha.exit": 0,
    "solve_vi_alpha.stdout": "4c042d4330c39ba84c3966e57a684167b63900fd034b3ca45374a3bdbbae5ee8",
    "solve_vi_filtered.exit": 0,
    "solve_vi_filtered.stdout": "3dd78d6aec920d5e77cb8223f4f9be6a591d3f573d6df625fe24cb361cabb977",
    "solve_vi_normalized.exit": 0,
    "solve_vi_normalized.stdout": "19777c90782128570c4835b202b2f60797e445c73e1fbb907b44bc764fef8038",
    "sparse.json": "bd13699881657ee4f58a5f250f0669481aa6acec03614de9d9f6268d69c05629",
    "sparse_1000.json": "f884145d67f90833996bbd59ba4575b2bd212d9f1c73360a077b893790f8a639",
    "sparse_normalized.json": "ae7e4292713d2a669c170987afac382ccfce911695fe451a59abe8ffd0fa6c91",
    "twostate.json": "f7ed3b87ae6e6538e4f704927ff121441ddbba5bf3c015fcf075dc55093b14be",
    "twostate_mdp.exit": 0,
    "twostate_mdp.stdout": "e47246a738201ff7065fa0b542077280c3ff0e8c5e56e769cbdd418723dc17e2",
    "twostate_suite_0.exit": 0,
    "twostate_suite_0.stdout": "663915678986014209539c07d5ec7ecc08ae6473b1c608dd8534579bd582f852",
    "twostate_suite_7.exit": 0,
    "twostate_suite_7.stdout": "b229fc3ec47207b7763fe24b6be0afa74541d805b7d9672bda6ce50ec8ae83cd",
    "vi.csv": "f4e1b44e42d66174a166af7e7dbc69084042a8d09140bfc8e59fdccca3f8e752",
    "vi_filtered.csv": "4912c0ac15084ac8abaa6bb66b0abd0d1c766e9c2b410061a742c8dcab000e8c",
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def observed(tmp_path_factory) -> dict:
    d = tmp_path_factory.mktemp("golden")
    p = lambda name: str(d / name)  # noqa: E731
    seen: dict = {}

    def run(name: str, *argv: str) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            seen[f"{name}.exit"] = main(list(argv))
        seen[f"{name}.stdout"] = _sha(buf.getvalue())

    def record(*files: str) -> None:
        for f in files:
            seen[f] = hashlib.sha256((d / f).read_bytes()).hexdigest()

    run("generate_sparse", "generate", "--seed", "11", "--structure", "sparse",
        "--n-states", "40", "--sparse-k", "3", "--max-actions", "4", "--out", p("sparse.json"))
    run("generate_dense", "generate", "--seed", "5", "--structure", "dense",
        "--n-states", "5", "--out", p("dense.json"))
    record("sparse.json", "dense.json")

    sparse = ["--mdp", p("sparse.json")]
    run("solve_vi", "solve-vi", *sparse, "--stop", "span:1e-6", "--trace", p("vi.csv"))
    run("solve_vi_filtered", "solve-vi", *sparse, "--stop", "span:1e-6",
        "--filter", "appendix", "--v0", "upper", "--trace", p("vi_filtered.csv"))
    record("vi.csv", "vi_filtered.csv")
    run("solve_pi_maxreward", "solve-pi", *sparse, "--pi0", "maxreward")
    run("solve_pi_first", "solve-pi", *sparse, "--pi0", "first")
    run("solve_pi_dense", "solve-pi", "--mdp", p("dense.json"))

    (d / "m2_mix.json").write_text(mdp_to_json(m2_mix()), encoding="utf-8")
    (d / "m2.json").write_text(mdp_to_json(m2()), encoding="utf-8")
    record("m2_mix.json")
    run("normalize", "normalize", "--mdp", p("m2_mix.json"), "--out", p("m2_mix_normalized.json"))
    run("normalize_dense", "normalize", "--mdp", p("dense.json"),
        "--out", p("dense_normalized.json"))
    run("normalize_sparse", "normalize", *sparse, "--out", p("sparse_normalized.json"))
    record("m2_mix_normalized.json", "dense_normalized.json", "sparse_normalized.json")
    run("gamma_eff", "gamma-eff", "--mdp", p("m2_mix.json"))
    run("gamma_eff_m2", "gamma-eff", "--mdp", p("m2.json"))
    run("gamma_eff_dense", "gamma-eff", "--mdp", p("dense.json"))
    run("gamma_eff_sparse", "gamma-eff", *sparse)

    (d / "v0.json").write_text(json.dumps([1.0, 0.0]), encoding="utf-8")
    norm = ["--mdp", p("m2_mix_normalized.json")]
    run("solve_vi_normalized", "solve-vi", *norm, "--stop", "time:10",
        "--v0", f"file:{p('v0.json')}", "--trace", p("normalized.csv"))
    run("certify", "certify", *norm, "--trace", p("normalized.csv"))
    run("solve_vi_alpha", "solve-vi", "--mdp", p("m2_mix.json"), "--alpha", "0.5",
        "--stop", "time:12", "--v0", f"file:{p('v0.json')}", "--trace", p("alpha.csv"))
    run("certify_alpha", "certify", "--mdp", p("m2_mix.json"), "--trace", p("alpha.csv"),
        "--alpha", "0.5")
    record("normalized.csv", "alpha.csv")

    run("generate_twostate", "generate", "--seed", "4", "--structure", "dense", "--n-states", "2",
        "--min-actions", "6", "--max-actions", "6", "--out", p("twostate.json"))
    record("twostate.json")
    run("twostate_mdp", "twostate", "--mdp", p("twostate.json"))
    run("twostate_suite_7", "twostate", "--suite", "200", "--seed", "7")
    run("twostate_suite_0", "twostate", "--suite", "200", "--seed", "0")

    run("generate_sparse_1000", "generate", "--seed", "7", "--structure", "sparse",
        "--n-states", "1000", "--sparse-k", "5", "--max-actions", "8",
        "--out", p("sparse_1000.json"))
    run("generate_dense_60", "generate", "--seed", "3", "--structure", "dense",
        "--n-states", "60", "--out", p("dense_60.json"))
    run("normalize_dense_60", "normalize", "--mdp", p("dense_60.json"),
        "--out", p("dense_60_normalized.json"))
    record("sparse_1000.json", "dense_60.json", "dense_60_normalized.json")
    return seen


def test_pipeline_covers_every_pin(observed):
    assert set(observed) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden(observed, key):
    assert observed[key] == GOLDEN[key]
