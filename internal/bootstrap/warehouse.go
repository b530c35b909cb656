package bootstrap

import (
	"context"

	"sapphire/internal/endpoint"
)

// InitializeWarehouse runs the warehousing-architecture variant of
// initialization described at the end of Appendix A: when the datasets
// are stored locally with Sapphire — no timeouts, no admission control —
// literal retrieval needs none of the class-hierarchy gymnastics, just
// the two straight-line queries Q9 (all filtered literals) and Q10 (all
// significant literals), paginated only to bound result-set size.
func InitializeWarehouse(ctx context.Context, ep endpoint.Endpoint, cfg Config) (*Cache, error) {
	return run(ctx, ep, cfg, func(in *initializer) error {
		if _, err := in.pages(&in.stats.LiteralQueries, in.addLiteral, func(offset int) string {
			return QueryWarehouseLiterals(cfg.Language, cfg.MaxLiteralLength, cfg.PageSize, offset)
		}); err != nil {
			return err
		}
		_, err := in.pages(&in.stats.SignificanceQueries, in.addSignificance, func(offset int) string {
			return QueryWarehouseSignificant(cfg.Language, cfg.MaxLiteralLength, cfg.PageSize, offset)
		})
		return err
	})
}
