"""KV-cache eviction for multimodal decoders.

The core idea: split each candidate key's attention importance by whether
the attending queries share its modality, rank the two scores separately,
and keep only keys that rank highly under both. A smoothed softmax accounts
for the probability mass the evicted keys used to hold. Baseline policies,
a synthetic decode simulator, trace file I/O, distribution diagnostics and
a CLI round out the toolkit.

The public API is each module's names, imported from the module itself
(kvprune.core, kvprune.simulator and so on); the package holds only its
version.
"""

__version__ = "0.1.0"
