"""Randomized differential fuzz: generate a random fixture with the
driver schemas (nasty distributions — ties everywhere, hot keys,
constant columns, empty-ish strings, duplicate texts, boundary
timestamps) and run the ENTIRE oracle suite against it via
tools/parity_check.py.  The fixed sf fixtures verify one data shape;
this sweeps arbitrarily many.

    python tools/fuzz_differential.py [seed]      # generate + run

The generator keeps the semantic contracts the queries document:
non-null keys where the pipelines declare loud-raise-on-null,
positive quantities for the SSSP weight derivation, JSON props, text
over a small vocabulary (so dedup/jaccard actually fire).
"""
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 1234
OUT = f"/tmp/fuzz_sf_{SEED}"
rng = np.random.RandomState(SEED)

os.makedirs(OUT, exist_ok=True)

N_DOC = int(rng.randint(300, 900))
N_EV = int(rng.randint(2000, 6000))
N_CUST = int(rng.randint(80, 200))
N_SUPP = int(rng.randint(20, 60))
N_PART = int(rng.randint(60, 160))
N_ORD = int(rng.randint(300, 900))
N_LI = int(rng.randint(1200, 3000))
N_EMB = int(rng.randint(150, 400))
DIM = 64   # the fixture contract: oracles pin the embedding dim

VOCAB = [f"tok{i}" for i in range(int(rng.randint(30, 120)))]
LANGS = ["en", "de", "fr", "es", "zh"]
SOURCES = [f"src{i}" for i in range(int(rng.randint(3, 20)))]
ETYPES = ["click", "view", "purchase", "signup", "error"]


def wr(name, table):
    pq.write_table(table, os.path.join(OUT, f"{name}.parquet"))


# region / nation -----------------------------------------------------------
wr("region", pa.table({
    "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
    "r_name": pa.array([f"REGION{i}" for i in range(5)])}))
wr("nation", pa.table({
    "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
    "n_name": pa.array([f"NATION{i}" for i in range(25)]),
    "n_regionkey": pa.array(rng.randint(0, 5, 25).astype(np.int32))}))

# customer / supplier / part -------------------------------------------------
wr("customer", pa.table({
    "c_custkey": pa.array(np.arange(1, N_CUST + 1, dtype=np.int64)),
    "c_name": pa.array([f"Customer#{i:09d}" for i in range(1, N_CUST + 1)]),
    "c_nationkey": pa.array(rng.randint(0, 25, N_CUST).astype(np.int32)),
    "c_acctbal": pa.array(np.round(rng.randn(N_CUST) * 1000, 2)),
    "c_mktsegment": pa.array(rng.choice(
        ["BUILDING", "MACHINERY", "AUTOMOBILE"], N_CUST))}))
wr("supplier", pa.table({
    "s_suppkey": pa.array(np.arange(1, N_SUPP + 1, dtype=np.int64)),
    "s_name": pa.array([f"Supplier#{i:09d}" for i in range(1, N_SUPP + 1)]),
    "s_nationkey": pa.array(rng.randint(0, 25, N_SUPP).astype(np.int32)),
    "s_acctbal": pa.array(np.round(rng.randn(N_SUPP) * 1000, 2))}))
wr("part", pa.table({
    "p_partkey": pa.array(np.arange(1, N_PART + 1, dtype=np.int64)),
    "p_name": pa.array([f"part {i} colour" for i in range(1, N_PART + 1)]),
    "p_brand": pa.array(rng.choice([f"Brand#{i}" for i in range(1, 6)],
                                   N_PART)),
    "p_type": pa.array(rng.choice(["STANDARD", "SMALL", "LARGE"], N_PART)),
    "p_size": pa.array(rng.randint(1, 50, N_PART).astype(np.int32)),
    "p_retailprice": pa.array(np.round(rng.rand(N_PART) * 2000 + 1, 2))}))

# orders / lineitem ----------------------------------------------------------
base_us = np.int64(1_704_067_200_000_000)          # 2024-01-01
od = base_us + rng.randint(0, 30 * 86_400_000_000, N_ORD).astype(np.int64)
wr("orders", pa.table({
    "o_orderkey": pa.array(np.arange(1, N_ORD + 1, dtype=np.int64)),
    "o_custkey": pa.array(rng.randint(1, N_CUST + 1, N_ORD)
                          .astype(np.int64)),
    "o_orderstatus": pa.array(rng.choice(["O", "F", "P"], N_ORD)),
    "o_totalprice": pa.array(np.round(rng.rand(N_ORD) * 100000, 2)),
    "o_orderdate": pa.array(od.astype("datetime64[us]")),
    "o_orderpriority": pa.array(rng.choice(
        ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"],
        N_ORD))}))
sd = base_us + rng.randint(0, 60 * 86_400_000_000, N_LI).astype(np.int64)
wr("lineitem", pa.table({
    "l_orderkey": pa.array(rng.randint(1, N_ORD + 1, N_LI)
                           .astype(np.int64)),
    "l_partkey": pa.array(rng.randint(1, N_PART + 1, N_LI)
                          .astype(np.int64)),
    "l_suppkey": pa.array(rng.randint(1, N_SUPP + 1, N_LI)
                          .astype(np.int64)),
    "l_linenumber": pa.array(rng.randint(1, 8, N_LI).astype(np.int32)),
    "l_quantity": pa.array(rng.randint(1, 51, N_LI).astype(np.float64)),
    "l_extendedprice": pa.array(np.round(rng.rand(N_LI) * 50000, 2)),
    "l_discount": pa.array(np.round(rng.rand(N_LI) * 0.1, 2)),
    "l_tax": pa.array(np.round(rng.rand(N_LI) * 0.08, 2)),
    "l_returnflag": pa.array(rng.choice(["A", "N", "R"], N_LI)),
    "l_linestatus": pa.array(rng.choice(["O", "F"], N_LI)),
    "l_shipdate": pa.array(sd.astype("datetime64[us]"))}))

# events ---------------------------------------------------------------------
# nasty: heavy ties (coarse ts grid for a slice), one hot user, value
# ties, duplicated event patterns
ts = base_us + rng.randint(0, 30 * 86_400_000_000, N_EV).astype(np.int64)
tie_slice = rng.rand(N_EV) < 0.2
ts[tie_slice] = (ts[tie_slice] // 3_600_000_000) * 3_600_000_000
users = np.where(rng.rand(N_EV) < 0.3, 7,
                 rng.randint(1, 60, N_EV)).astype(np.int64)
# documented domain: DGIM window sums require non-negative values
vals = np.round(np.abs(rng.randn(N_EV)) * 10, 1)
vals[rng.rand(N_EV) < 0.1] = 5.0                   # value ties
wr("events", pa.table({
    "event_id": pa.array(np.arange(N_EV, dtype=np.int64)),
    "ts": pa.array(ts.astype("datetime64[us]")),
    "user_id": pa.array(users),
    "event_type": pa.array(rng.choice(ETYPES, N_EV,
                                      p=[.4, .3, .15, .1, .05])),
    "value": pa.array(vals),
    "props": pa.array(['{"k": %d}' % k
                       for k in rng.randint(0, 100, N_EV)])}))

# documents ------------------------------------------------------------------
texts = []
for i in range(N_DOC):
    L = int(rng.randint(3, 60))
    toks = rng.choice(VOCAB, L)
    texts.append(" ".join(toks))
# exact duplicates + near duplicates so dedup pipelines fire
for _ in range(N_DOC // 10):
    i, j = rng.randint(0, N_DOC, 2)
    texts[i] = texts[j]
wr("documents", pa.table({
    "doc_id": pa.array(np.arange(N_DOC, dtype=np.int64)),
    "text": pa.array(texts),
    "lang": pa.array(rng.choice(LANGS, N_DOC, p=[.6, .1, .1, .1, .1])),
    "source": pa.array(rng.choice(SOURCES, N_DOC)),
    "n_chars": pa.array(np.array([len(t) for t in texts],
                                 dtype=np.int64))}))

# embeddings -----------------------------------------------------------------
emb = rng.randn(N_EMB, DIM).astype(np.float32)
# exact duplicate vectors so cosine-dup pipelines fire
for _ in range(N_EMB // 10):
    i, j = rng.randint(0, N_EMB, 2)
    emb[i] = emb[j]
wr("embeddings", pa.table({
    "vec_id": pa.array(np.arange(N_EMB, dtype=np.int64)),
    "embedding": pa.array(list(emb), pa.list_(pa.float32())),
    "label": pa.array(rng.randint(0, 5, N_EMB).astype(np.int32))}))

print(f"fuzz fixture at {OUT}: docs={N_DOC} events={N_EV} "
      f"lineitem={N_LI} embeddings={N_EMB}")

env = dict(os.environ)
env.setdefault("PAR_CPUS", "16")
# knn is back in the sweep since r5: all ANN ranks order by
# round(cos, 8) with the id tie-break on BOTH engines (knn.py
# _tie_round), so the old ulp-level rank flips at the k boundary are
# deterministic ties now — fuzz seed 424242 is the regression witness
# (it caught knn_join before the fix).  Without PAR_ONLY,
# parity_check.py runs every oracle_sql() query.
r = subprocess.run([sys.executable,
                    os.path.join(os.path.dirname(
                        os.path.abspath(__file__)), "parity_check.py"),
                    OUT], env=env)
sys.exit(r.returncode)
