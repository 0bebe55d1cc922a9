"""Small helpers shared by the example scripts (kept out of the library API)."""

from __future__ import annotations

from repro.data.sources import SourceCursor


def draw_samples(catalog, filesystem, count, context_length=None):
    """Draw ``count`` distinct samples round-robin and optionally clip to a context."""
    cursors = [SourceCursor(source, filesystem) for source in catalog]
    remaining = {source.name: source.num_samples for source in catalog}
    samples = []
    index = 0
    while len(samples) < count:
        cursor = cursors[index % len(cursors)]
        index += 1
        if remaining[cursor.source.name] <= 0:
            continue
        remaining[cursor.source.name] -= 1
        metadata = cursor.next_metadata()
        if context_length is not None:
            image = min(metadata.image_tokens, int(context_length * 0.85))
            text = max(1, min(metadata.text_tokens, context_length - image))
            metadata = metadata.with_updates(image_tokens=image, text_tokens=text)
        samples.append(metadata)
    return samples
