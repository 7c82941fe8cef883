"""Phase Sequence Selection — deployment (paper Fig. 2, box 4 / §III-D).

The trained policy drives the compiler's optimizer phase by phase.  The
phase with the highest predicted probability is applied; if it does not
change the program (detected via a canonical fingerprint), the 2nd, 3rd,
... best are tried, up to "Max. inactive subsequence length" (Table V:
8).  Selection ends at that limit or when the total number of applied
phases reaches "Max. phase sequence length" (Table V: 128).

PSS needs no Performance Estimator at deployment (paper §III-D): the
policy has internalized the platform knowledge, so this module only needs
the policy + encoder bundle, which is also (de)serializable to a single
``.npz`` (the paper ships TorchScript into LLVM via LibTorch; our
equivalent is an npz loaded by this selector).
"""

import numpy as np

from repro.features import extract_static_features
from repro.ir.printer import module_fingerprint
from repro.passes import AnalysisManager, create_pass
from repro.rl.policy import FeatureEncoder, PolicyNetwork


class PhaseSequenceSelector:
    def __init__(self, policy, encoder, phases,
                 max_sequence_length=128, max_inactive_length=8):
        self.policy = policy
        self.encoder = encoder
        self.phases = list(phases)
        self.max_sequence_length = max_sequence_length
        self.max_inactive_length = max_inactive_length

    def optimize(self, module, trace=None):
        """Drive the optimizer over ``module`` in place.

        Returns the list of applied (active) phases.

        One analysis manager spans the whole selection: phases share
        cached dominator/loop analyses, activity detection re-hashes
        only the functions a phase changed, and feature extraction
        reuses the static partials of untouched functions — the
        function-granular incremental loop the deployment path needs
        (each inactive trial previously re-fingerprinted and re-analyzed
        the entire module).
        """
        applied = []
        am = AnalysisManager()
        fingerprint = module_fingerprint(module, am)
        while len(applied) < self.max_sequence_length:
            features = extract_static_features(module, am=am)
            probabilities = self.policy.probabilities(
                self.encoder.encode(features))
            ranked = np.argsort(probabilities)[::-1]
            # Try phases from most to least probable until one changes
            # the program, bounded by the inactive-subsequence limit.
            progressed = False
            for rank, action in enumerate(
                    ranked[:self.max_inactive_length]):
                phase_name = self.phases[int(action)]
                create_pass(phase_name).run(module, am)
                new_fingerprint = module_fingerprint(module, am)
                if trace is not None:
                    trace.append((phase_name, new_fingerprint !=
                                  fingerprint))
                if new_fingerprint != fingerprint:
                    fingerprint = new_fingerprint
                    applied.append(phase_name)
                    progressed = True
                    break
            if not progressed:
                break  # inactive-subsequence limit hit
        return applied

    # -- persistence ------------------------------------------------------
    def save(self, path):
        state = {}
        for key, value in self.policy.state_dict().items():
            state[f"policy_{key}"] = value
        for key, value in self.encoder.state_dict().items():
            state[f"encoder_{key}"] = value
        state["phases"] = np.array(self.phases)
        state["limits"] = np.array([self.max_sequence_length,
                                    self.max_inactive_length])
        np.savez_compressed(path, **state)

    @classmethod
    def load(cls, path):
        data = np.load(path, allow_pickle=False)
        policy_state = {key[len("policy_"):]: data[key]
                        for key in data.files
                        if key.startswith("policy_")}
        encoder_state = {key[len("encoder_"):]: data[key]
                         for key in data.files
                         if key.startswith("encoder_")}
        policy = PolicyNetwork.from_state_dict(policy_state)
        encoder = FeatureEncoder.from_state_dict(encoder_state)
        phases = [str(p) for p in data["phases"]]
        limits = data["limits"]
        return cls(policy, encoder, phases,
                   max_sequence_length=int(limits[0]),
                   max_inactive_length=int(limits[1]))
