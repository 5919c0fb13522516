"""Golden traces: SHA-256 of the best-fitness bytes of short seeded runs.

A change that keeps the optimizers' arithmetic must keep every digest.
The pinned values change only with a deliberate change to the arithmetic
or the random stream; print the new ones with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib

import numpy as np
import pytest

from aiopt import AioParams, PsoParams, lookup, run_aio, run_pso

ITERATIONS = 80
POPULATION = 10
SEED = 7

# (benchmark, dims, swarm count, reward rate, penalty rate) -> digest.
# The swarm counts cover a single swarm (no membership automata), two
# swarms, one swarm per dimension, the default five, and nine (eight or
# more actions per row); the unequal rates make reward and penalty rows
# scale differently in one update.
AIO_GOLDEN = {
    ("sphere", 30, 5, 0.1, 0.1): "06d52c8660e657dcd31c3dcccedb7b44bc5f8366a00e6c1e52b47b755b7a0be7",
    ("sphere", 7, 3, 0.1, 0.1): "631d84b08c5611bbf20a11a36854dae6d3c345208e759b0b560d58ed1aa2b19b",
    ("sphere", 10, 1, 0.1, 0.1): "8821ebeef01e7786206c9db503faaaa22d57436f7b5c0441f8a38c2916101e14",
    ("sphere", 12, 2, 0.1, 0.1): "f25c1aaf1fc9a1f3045a741aa9f527e97f1efd51a54dcb880a125ae5eebf309b",
    ("sphere", 4, 4, 0.1, 0.1): "cd47731fd7f0bcfa908f76e034bb63857f47c92f0a303aa3ef7d3ff3449ac725",
    ("rosenbrock", 30, 5, 0.1, 0.1): "c75bbb21aec2d4ad0a9ba9c47e139f1875a2db204bcfbef839250e9f6a844c72",
    ("rosenbrock", 7, 3, 0.1, 0.1): "3a90cdb05d0590e3256cf51be1706b0efbf8de263b15adfd19a6b93460e73ae8",
    ("rosenbrock", 10, 1, 0.1, 0.1): "ce2e7a1bcce3c870871c552f4bda3b8190c41995e0bb6dc79a0abc12905fed29",
    ("rosenbrock", 12, 2, 0.1, 0.1): "48aa7b9dd019dd55b6b9b9b0fe353ff1f5d87487e2c85830e3b73b859478c938",
    ("rosenbrock", 4, 4, 0.1, 0.1): "e25e7baa80de255612e3343213d128e71480ffa944c9861382c50e05a8b81bf0",
    ("ackley", 30, 5, 0.1, 0.1): "6032636c338460051ed137403b7b22faa9827f4ac8fe2deb4eb66f79eb4ef295",
    ("ackley", 7, 3, 0.1, 0.1): "ddd5eb7ce7e0a0a5f852410f2869f3e777a673e2ee211a339f2f77311fa398cd",
    ("ackley", 10, 1, 0.1, 0.1): "ffa90b177b319446ceb34d68e76f23283f38d9436ad7b551d21b88cf27dedfc6",
    ("ackley", 12, 2, 0.1, 0.1): "6b5e7dac630d2e5e2b7c7afa02e7913352b20d29dc512bbed5ebd305168653f1",
    ("ackley", 4, 4, 0.1, 0.1): "bed3314c883cadc22d7908d0fc5962360fccd2b182a63403319e61bf08e97a8a",
    ("griewank", 30, 5, 0.1, 0.1): "1b2f52ee051fd2211d99b63da7d96849b697cf9472b8c103ddac6744647bb169",
    ("griewank", 7, 3, 0.1, 0.1): "13a07f272d4199936e4a0fb2eefd63b164a864377417d5665ec08c6c8581446b",
    ("griewank", 10, 1, 0.1, 0.1): "f48d132bb924df65e5226fdd03c468beab58e4ea19c95e6b9fb0b6634b3a0e7d",
    ("griewank", 12, 2, 0.1, 0.1): "48534661e449a482d013c58149e172259865e385313493a2a5e29c3b143ebfb1",
    ("griewank", 4, 4, 0.1, 0.1): "835adf8c5fcf87dba930609919f3c0f435388a9cda7c3f6d33b52005d55ab709",
    ("rastrigin", 30, 5, 0.1, 0.1): "24d607dd6e426297c7f49ec6e3a673bffa5eaa6c7410bc61fb317be0f2135ab6",
    ("rastrigin", 7, 3, 0.1, 0.1): "aff69afc2a55754e634a3543a4419f15dd895763efcec62aa53c26af05b5a970",
    ("rastrigin", 10, 1, 0.1, 0.1): "68962e8611a04c9a5f1932aef4be635765faa0a0330b0d23a1477b3e8c6e61a6",
    ("rastrigin", 12, 2, 0.1, 0.1): "a2e36a55df68ffcd8747ad8034a37be320b45cc5ca9282e087ed6b1b7ecd42ee",
    ("rastrigin", 4, 4, 0.1, 0.1): "f268455d58e9e5e834fc297a6ab2ed52fe66d6a481a4d2eafa3e37cf9eb37549",
    ("rastrigin", 100, 5, 0.1, 0.1): "d08d22192128c18cedd40230b27c67f8207bed7314271513df896bdde5d4d2e8",
    ("rastrigin", 20, 9, 0.1, 0.1): "d5c90e8109489c1ac88368b2204772b26580b3e569e1b9b3ec96fac3ab74df33",
    ("ackley", 12, 4, 0.3, 0.02): "d5724de3dd715f752a33dabfab7c3560887e64e0e5bfecbf25b35d3d6ed69141",
    ("griewank", 9, 3, 0.05, 0.0): "6c9cbd8b4fc0f98351f32e6d990e5c518467536474228d1ebaec98136410ab5b",
}

# (benchmark, dims) -> digest, baseline with the default fixed inertia.
PSO_GOLDEN = {
    ("sphere", 10): "69dc66140d85d6d512b230c9e0f249fce08b3e797c812fef79f344f8b504bc39",
    ("sphere", 30): "fbb29b5547b43504bbb8984e3070d34128974daebf798572b3196a0b554c98c4",
    ("rosenbrock", 10): "0aeae09aad49e33decec1ff46840ca225801d6c355e401192dc80fc6fb04969d",
    ("rosenbrock", 30): "91c5c34acbaf9c1aa7ad4df3c7bbd7cb91d8d9ab9e5bee189c7be6fe423622ab",
    ("ackley", 10): "bee7824696637266a03a9d8e290ce817d25bc00bd175b5ab3b44281d6bc6bb7e",
    ("ackley", 30): "18c19cb62316ea64a5e7b13c200bbc98442f3dee319a3f7947356a874ef31577",
    ("griewank", 10): "00a07ce37d2d6e94f5808f3d8746958128082b9b8dc68c6175d41fc70e5d95e4",
    ("griewank", 30): "ea0b80c93ecd623e4bb2ff6c4c53cb292453123f74307c2e30e22541791853b7",
    ("rastrigin", 10): "297b5f6ea1e11867a31ca333caa1b891d7d244ff7b4e9dba655e6b690c5faceb",
    ("rastrigin", 30): "86b310e7b7c7bf355dc9b7ad48b26a3a89658c0d7bce22573481226cd4f48bc9",
}


def digest(best_fitness: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(best_fitness, dtype=np.float64).tobytes()).hexdigest()


def pso_params() -> PsoParams:
    return PsoParams(population_size=POPULATION, max_iterations=ITERATIONS)


def aio_digest(name, dims, swarms, reward, penalty) -> str:
    params = AioParams(swarm_count=swarms, la_reward=reward, la_penalty=penalty, pso=pso_params())
    return digest(run_aio(lookup(name, dims), params, SEED).best_fitness)


def pso_digest(name, dims) -> str:
    return digest(run_pso(lookup(name, dims), pso_params(), SEED).best_fitness)


@pytest.mark.parametrize("case", AIO_GOLDEN, ids=lambda c: "-".join(map(str, c)))
def test_aio_trace_is_golden(case):
    assert aio_digest(*case) == AIO_GOLDEN[case]


@pytest.mark.parametrize("case", PSO_GOLDEN, ids=lambda c: "-".join(map(str, c)))
def test_pso_trace_is_golden(case):
    assert pso_digest(*case) == PSO_GOLDEN[case]


if __name__ == "__main__":
    for case in AIO_GOLDEN:
        print(f"    {case}: \"{aio_digest(*case)}\",")
    for case in PSO_GOLDEN:
        print(f"    {case}: \"{pso_digest(*case)}\",")
