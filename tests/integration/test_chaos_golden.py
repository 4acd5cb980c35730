"""Golden pins of every chaos scenario's report.

A chaos report is a pure function of ``(scenario, seed)``, so the
SHA-256 of ``report.render()`` pins everything a scenario builds and
schedules: fault timing, detection latency, repair rounds, re-issued
ops and the invariants' details. A refactor of the scenario harness
must leave every digest unchanged; a change that moves a simulated
schedule on purpose re-records the table below (the failure message
prints the new report so the diff can be reviewed first). Three seeds
are pinned (1, 7 and 42), 48 reports in all.
"""

import hashlib

import pytest

from repro.faults import SCENARIOS, run_scenario

GOLDEN = {
    ("drop", 1): "b2b0e9c8674a129a8cf4c1b4e94c8add29a3938ca905b45ce9b1c1afa80cb7fb",
    ("lossy", 1): "d6e2d86922f797aa1050011474b26553d29af3198ea6acd4b2f16924c6597b67",
    ("partition", 1): "ed809ce94d48e55ab946c0b75095ec71d97d0ca2918339fb1940ca12cc1c2109",
    ("stall", 1): "9d5409792a7fcec8c4dd491de2c4c0f19d9f181a6de11788fd8be15f218261d6",
    ("nic-crash", 1): "30689303d9ce9bb9bc31a8cb1f3814ab1a55c0aee90daa980cbbe01a51ab4588",
    ("host-crash", 1): "abbc7e2a10d7f58ad17a4df2316cb1f92f11acbbbe238cbe39677d36ce8d2ea4",
    ("power-failure", 1): "d5d43d98fde4e80426ae087595eddce12fb01ba983bc67cdcff127b485ad7edc",
    ("partition-repair", 1): "468fef5b946f57e13a1f6b5a348c217c90d01836aafe677584730185d986bc7d",
    ("double-crash", 1): "5193b76934b77611543987b72832471b28b3363b6648a9b78cc84b6ddefeacac",
    ("stall-lossy", 1): "78b4ecc74c3d653e5f9278fe9e81db2c8dccb613ae7dcf9bb903aee6ff5b9d1e",
    ("client-crash", 1): "7fd55bd0e4214c3b34feba4d84aac964a696817d7bde009fcb0e4720ca3ec1da",
    ("txn-failover", 1): "1aa178c769eb6a15c0288e49858365e0e8090cddf115d9d8429e23e684b19fe5",
    ("txn-insert", 1): "29088361c32f039ab882639293fd1998397757242209dd8b369c86663335201c",
    ("txn-chaos", 1): "0728bfac7f2d1529f59472aa0168d7f1a0521c5c751425d58bf642ab372bfcca",
    ("txn-double-failover", 1): "94ae9093fe2af87fdbd1b702ade9e8c76efb738dd34494d21b6c4523c03f9ed0",
    ("txn-reset-crash", 1): "ed9878ae1d788a5a09b74bd9a946c4039e48700a82921fd1f3fb4c70aaf4948a",
    ("drop", 7): "cbd276fa5b9e44896ac0bdff6b3ef533830348bf761034e821deb57670f9a112",
    ("lossy", 7): "a71b568e8c41e1fc4af93896aebb42995529b60904e24d585ce4241d8211882d",
    ("partition", 7): "82dfa56c78dab5f12466b20fb926566cf74cc4d1c931131dd54992eeb0ebf736",
    ("stall", 7): "b2720567a9d7708e56e7c50777b5229dec980e88a64b04efc6266a896c285b88",
    ("nic-crash", 7): "c08970a668b3a928c48d0a507c8d575b0542e34006e964e0caee2ced74798ac0",
    ("host-crash", 7): "23b40868f222f3eb2b2fbda34de1300a82caa98dafa7739f674a7ff3e7412317",
    ("power-failure", 7): "c34a7d58ade3cfc0e4b8b9c99250b70871061e3589de9242734cb65eb6c31cf7",
    ("partition-repair", 7): "12ed134443e982bf1c8c7b0244d477102d22acb1c3effd00aa8b772f1c298101",
    ("double-crash", 7): "610dc482783072933d11b7af28a850f2a40f24d657851213938dba697cbfd23f",
    ("stall-lossy", 7): "4e8cbb5bfcc3de57c4d4b92866d43edaf71f191550a248156725c60204bd97e3",
    ("client-crash", 7): "2ff47b5e9ff879c7fcbbb6ff469340e34e2349cad8e30e9cd1c69a1cc452cac9",
    ("txn-failover", 7): "3c8160cbf3aa603f58c810a1a8cc80ce75b0d1bc33c6024d122c57729e028ab4",
    ("txn-insert", 7): "7368a140cbd1864243100fee2b906c52ed51ab346c8f47b3a05ced70e84eb637",
    ("txn-chaos", 7): "f577d83b594ac2510e1bb7d7484db20407eee753f487e63b9fa8b47fe0e6f501",
    ("txn-double-failover", 7): "cbfa6d0c8437734b7a211013852c1e19afcf53bd72e2cc7693b94a8064653dc0",
    ("txn-reset-crash", 7): "10ebdbc3e5a621decbe8e091f4252c00e219eae9c38e45b5bb2980f40c2f061f",
    ("drop", 42): "535a4549705bcf35b956d8345b63f4a525b5bd4f672ebfc7f9852cb22f57caa7",
    ("lossy", 42): "df6c7576824b17652b256b3292e55a381244f5c068cecd4b9c7bfa0c42265b0f",
    ("partition", 42): "16246d6b2a8beaf2666b379682a85577bdcd745f6ed77692374ca62c77e5d3b9",
    ("stall", 42): "3c8a83f688f4e0185c645a21b286e0c68305c88061d68fca5da231bc3c1530e6",
    ("nic-crash", 42): "7ec647a8b6e9c824103cbd04cfcc553b157501caf1661f45fea9827cb7477c6b",
    ("host-crash", 42): "6375a1564fbb2f3013be6116e37f3c0312ba7d3ca24cfc7b6a486b6a8d68f2a5",
    ("power-failure", 42): "f455b97be3b235a9882779a75dcee3b95f3faeb0e8085d80cce46ea7ade5543b",
    ("partition-repair", 42): "e5d0668e510c01ea09da059f0aff8cd07eaf5fde15fd592b6a7a5a4576ed4325",
    ("double-crash", 42): "91f015289835cca84c267943baf03c6908da50d4c321fbd76779d2e261b5182d",
    ("stall-lossy", 42): "7542df6f40c11b0fce16d8e7e08c2a49c56ba8b52e822e6eab8d85fa99d835b3",
    ("client-crash", 42): "814ffb711af2d2644078b9e86d2f96b8033b5f44ebc7f686533ed24763667e26",
    ("txn-failover", 42): "86e95e0f6fb9224837c6c218b2fa334e32482d1d775119ac379ce3b6aec837f4",
    ("txn-insert", 42): "4628a4190f7dbe488b61664dd91aa70aceef17a101857665b46f92badec4279d",
    ("txn-chaos", 42): "271d5d6f9b03bfc5daf3897d29ff1f2217b16acaf823f33c24d5f8739274baf7",
    ("txn-double-failover", 42): "e467c20d5f54b5c633a69216b1ca02e13d03f5bfa2a32704483f8685150c62e6",
    ("txn-reset-crash", 42): "f581db2a86ac567d5a714bad16761cd656cd480f7f5461d5de310d7b3eb7bba9",
}


def test_every_scenario_is_pinned():
    assert {name for name, _ in GOLDEN} == set(SCENARIOS)


@pytest.mark.parametrize("name,seed", list(GOLDEN))
def test_report_matches_golden(name, seed):
    report = run_scenario(name, seed)
    rendered = report.render()
    assert report.passed, rendered
    digest = hashlib.sha256(rendered.encode()).hexdigest()
    assert digest == GOLDEN[(name, seed)], f"report drifted:\n{rendered}"
