# Convenience targets for the BFDN reproduction.

.PHONY: all test bench experiments experiments-quick serve load docs lint clean

all: test

test:
	cargo test --workspace

bench:
	cargo bench --workspace

# Regenerates every table of EXPERIMENTS.md (plus CSVs under results/csv).
experiments:
	cargo run --release -p bfdn-bench --bin experiments -- all --csv results/csv

experiments-quick:
	cargo run --release -p bfdn-bench --bin experiments -- all --quick

# Starts the simulation-serving daemon (its result store in
# results/service-store/ survives restarts). Talk to it with
# `bfdn-request` or `sweep --via-service 127.0.0.1:4077`.
serve:
	mkdir -p results
	cargo run --release -p bfdn-service --bin bfdn-serve -- \
		--addr 127.0.0.1:4077 --store-dir results/service-store

# Deterministic load + chaos run against a daemon started with
# `make serve` (profile: quick|standard|chaos; see README).
load:
	mkdir -p results
	cargo run --release -p bfdn-loadgen --bin bfdn-load -- \
		--profile quick --seed 1 --report-json results/load-report.json

docs:
	cargo doc --workspace --no-deps

lint:
	cargo fmt --all -- --check
	cargo clippy --workspace --all-targets -- -D warnings

clean:
	cargo clean
