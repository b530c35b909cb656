package datagen

// Name pools for filler entities. Combined deterministically, they give
// the generator a large space of distinct, realistic English literals so
// the cached-literal statistics (bin sizes, suffix-tree hit ratios)
// behave like a real dataset rather than like random bytes.

var firstNames = []string{
	"James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael",
	"Linda", "William", "Elizabeth", "David", "Barbara", "Richard", "Susan",
	"Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Christopher",
	"Nancy", "Daniel", "Lisa", "Matthew", "Margaret", "Anthony", "Betty",
	"Mark", "Sandra", "Donald", "Ashley", "Steven", "Dorothy", "Paul",
	"Kimberly", "Andrew", "Emily", "Joshua", "Donna", "Kenneth", "Michelle",
	"Kevin", "Carol", "Brian", "Amanda", "George", "Melissa", "Edward",
	"Deborah", "Ronald", "Stephanie", "Timothy", "Rebecca", "Jason", "Laura",
	"Jeffrey", "Sharon", "Ryan", "Cynthia", "Jacob", "Kathleen", "Gary",
	"Amy", "Nicholas", "Shirley", "Eric", "Angela", "Jonathan", "Helen",
	"Stephen", "Anna", "Larry", "Brenda", "Justin", "Pamela", "Scott",
	"Nicole", "Brandon", "Emma", "Benjamin", "Samantha", "Samuel",
	"Katherine", "Gregory", "Christine", "Frank", "Debra", "Alexander",
	"Rachel", "Raymond", "Catherine", "Patrick", "Carolyn", "Jack", "Janet",
	"Dennis", "Ruth", "Jerry", "Maria",
}

var surnames = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
	"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
	"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
	"Lee", "Perez", "Thompson", "White", "Harris", "Sanchez", "Clark",
	"Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen", "King",
	"Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores", "Green",
	"Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell", "Mitchell",
	"Carter", "Roberts", "Gomez", "Phillips", "Evans", "Turner", "Diaz",
	"Parker", "Cruz", "Edwards", "Collins", "Reyes", "Stewart", "Morris",
	"Morales", "Murphy", "Cook", "Rogers", "Gutierrez", "Ortiz", "Morgan",
	"Cooper", "Peterson", "Bailey", "Reed", "Kelly", "Howard", "Ramos",
	"Kim", "Cox", "Ward", "Richardson", "Watson", "Brooks", "Chavez",
	"Wood", "James", "Bennett", "Gray", "Mendoza", "Ruiz", "Hughes",
	"Price", "Alvarez", "Castillo", "Sanders", "Patel", "Myers", "Long",
	"Ross", "Foster", "Jimenez",
}

var cityStems = []string{
	"Spring", "River", "Lake", "Oak", "Maple", "Cedar", "Pine", "Elm",
	"Birch", "Willow", "Stone", "Iron", "Silver", "Gold", "Copper", "Clay",
	"Sand", "Hill", "Valley", "Ridge", "Brook", "Glen", "Fair", "Clear",
	"Green", "White", "Black", "Red", "Blue", "Grand", "High", "Low",
	"North", "South", "East", "West", "New", "Old", "Fort", "Port",
}

var citySuffixes = []string{
	"field", "ton", "ville", "burg", "ford", "haven", "port", "mouth",
	"wood", "land", "dale", "view", "side", "bridge", "crest", "gate",
}

var bookAdjectives = []string{
	"Silent", "Hidden", "Lost", "Forgotten", "Burning", "Distant", "Broken",
	"Golden", "Crimson", "Endless", "Quiet", "Savage", "Gentle", "Hollow",
	"Restless", "Shattered", "Winding", "Frozen", "Wandering", "Secret",
}

var bookNouns = []string{
	"Road", "River", "Garden", "Mountain", "Mirror", "Shadow", "Harbor",
	"Letter", "Journey", "Kingdom", "Orchard", "Winter", "Summer", "Voice",
	"Tower", "Island", "Forest", "Promise", "Horizon", "Storm",
}

var companyStems = []string{
	"Apex", "Vertex", "Nova", "Orion", "Atlas", "Titan", "Zenith", "Delta",
	"Vector", "Quantum", "Stellar", "Fusion", "Catalyst", "Summit", "Pioneer",
	"Meridian", "Beacon", "Anchor", "Crescent", "Horizon",
}

var companySuffixes = []string{
	"Industries", "Systems", "Dynamics", "Technologies", "Group",
	"Corporation", "Labs", "Works", "Holdings", "Partners",
}

var industryNames = []string{
	"Aerospace", "Medicine", "Software", "Automotive", "Energy",
	"Agriculture", "Finance", "Telecommunications", "Construction",
	"Entertainment", "Retail", "Shipping",
}
